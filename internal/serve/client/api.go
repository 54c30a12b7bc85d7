package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"

	"repro/internal/serve"
)

// Params mirror the server's build parameters for dataset creation.
type Params struct {
	Eps      float64
	Eta      int
	Kappa    int
	MaxNodes int
	Seed     int64
	// Index selects the neighbor index kind ("auto", "brute", "grid",
	// "kd", "vp"); empty means auto.
	Index string
}

// createRequest mirrors the server's dataset-creation body (CSV source).
type createRequest struct {
	Name     string  `json:"name,omitempty"`
	CSV      string  `json:"csv"`
	Eps      float64 `json:"eps,omitempty"`
	Eta      int     `json:"eta,omitempty"`
	Kappa    int     `json:"kappa,omitempty"`
	MaxNodes int     `json:"max_nodes,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	Index    string  `json:"index,omitempty"`
}

// DetectResult is one tuple's screening answer.
type DetectResult struct {
	Neighbors int  `json:"neighbors"`
	Outlier   bool `json:"outlier"`
}

// DetectResponse is the /detect answer: the session's resolved constraints
// and one result per query tuple.
type DetectResponse struct {
	Eps     float64        `json:"eps"`
	Eta     int            `json:"eta"`
	Results []DetectResult `json:"results"`
}

// Adjustment is one repaired tuple as the server reports it.
type Adjustment struct {
	Saved     bool     `json:"saved"`
	Natural   bool     `json:"natural"`
	Exhausted bool     `json:"exhausted"`
	Cost      float64  `json:"cost"`
	Tuple     []any    `json:"tuple,omitempty"`
	Adjusted  []string `json:"adjusted,omitempty"`
	Nodes     int      `json:"nodes"`
}

// RepairResponse is the /repair answer.
type RepairResponse struct {
	Adjustments []Adjustment `json:"adjustments"`
	Saved       int          `json:"saved"`
	Natural     int          `json:"natural"`
	Exhausted   int          `json:"exhausted"`
}

type detectRequest struct {
	Tuples [][]any `json:"tuples"`
	Member bool    `json:"member,omitempty"`
}

type repairRequest struct {
	Tuples    [][]any `json:"tuples"`
	TimeoutMS int     `json:"timeout_ms,omitempty"`
}

// CreateDatasetCSV uploads an inline CSV and returns the built session.
func (c *Client) CreateDatasetCSV(ctx context.Context, name, csv string, p Params) (*serve.SessionInfo, error) {
	var info serve.SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/datasets", createRequest{
		Name: name, CSV: csv,
		Eps: p.Eps, Eta: p.Eta, Kappa: p.Kappa, MaxNodes: p.MaxNodes, Seed: p.Seed,
		Index: p.Index,
	}, &info)
	if err != nil {
		return nil, err
	}
	return &info, nil
}

// CreateDatasetRaw uploads an already-encoded dataset-creation body without
// re-encoding it: contentType and body are forwarded verbatim, and rawQuery
// (when non-empty) is appended as the query string — the pass-through a
// coordinator needs to fan one upload out to its worker owners while
// preserving the exact bytes and build parameters the caller sent.
func (c *Client) CreateDatasetRaw(ctx context.Context, contentType, rawQuery string, body []byte) (*serve.SessionInfo, error) {
	path := "/v1/datasets"
	if rawQuery != "" {
		path += "?" + rawQuery
	}
	var info serve.SessionInfo
	if err := c.doBytes(ctx, http.MethodPost, path, contentType, body, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Session fetches one session's info snapshot.
func (c *Client) Session(ctx context.Context, id string) (*serve.SessionInfo, error) {
	var info serve.SessionInfo
	if err := c.do(ctx, http.MethodGet, "/v1/datasets/"+url.PathEscape(id), nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// SaveTuple saves one outlier tuple against the session (the single-tuple
// /save endpoint).
func (c *Client) SaveTuple(ctx context.Context, id string, tuple []any, timeoutMS int) (*Adjustment, error) {
	var adj Adjustment
	err := c.do(ctx, http.MethodPost, "/v1/datasets/"+url.PathEscape(id)+"/save",
		mutateRequest{Tuple: tuple, TimeoutMS: timeoutMS}, &adj)
	if err != nil {
		return nil, err
	}
	return &adj, nil
}

// Detect screens tuples against the session's cached index. member declares
// the tuples to be rows of the session's own dataset, excluding each one's
// stored copy from its neighbor count.
func (c *Client) Detect(ctx context.Context, id string, tuples [][]any, member bool) (*DetectResponse, error) {
	var resp DetectResponse
	err := c.do(ctx, http.MethodPost, "/v1/datasets/"+url.PathEscape(id)+"/detect",
		detectRequest{Tuples: tuples, Member: member}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Repair saves a batch of outlier tuples against the session.
func (c *Client) Repair(ctx context.Context, id string, tuples [][]any, timeoutMS int) (*RepairResponse, error) {
	var resp RepairResponse
	err := c.do(ctx, http.MethodPost, "/v1/datasets/"+url.PathEscape(id)+"/repair",
		repairRequest{Tuples: tuples, TimeoutMS: timeoutMS}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// MutateResponse mirrors the server's tuple-mutation answer: the affected
// logical row handle, the live totals after the mutation, and the
// incremental-maintenance footprint (flipped memberships, touched rows).
type MutateResponse struct {
	Op        string `json:"op"`
	Index     int    `json:"index"`
	Tuples    int    `json:"tuples"`
	Inliers   int    `json:"inliers"`
	Outliers  int    `json:"outliers"`
	Flipped   int    `json:"flipped"`
	Touched   int    `json:"touched"`
	Neighbors int    `json:"neighbors"`
	Outlier   bool   `json:"outlier"`
}

type mutateRequest struct {
	Tuple     []any `json:"tuple"`
	TimeoutMS int   `json:"timeout_ms,omitempty"`
}

// InsertTuple appends one tuple to the session's live dataset. The response
// carries the new row's logical handle, stable across later mutations (but
// not across a server restart after deletes). Note the retry layer can
// re-send after an ambiguous failure (timeout, 5xx mid-flight), so an
// insert may be applied twice; callers needing exactly-once should verify
// via the returned totals.
func (c *Client) InsertTuple(ctx context.Context, id string, tuple []any, timeoutMS int) (*MutateResponse, error) {
	var resp MutateResponse
	err := c.do(ctx, http.MethodPost, "/v1/datasets/"+url.PathEscape(id)+"/tuples",
		mutateRequest{Tuple: tuple, TimeoutMS: timeoutMS}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// UpdateTuple replaces the tuple at a logical row handle.
func (c *Client) UpdateTuple(ctx context.Context, id string, index int, tuple []any, timeoutMS int) (*MutateResponse, error) {
	var resp MutateResponse
	err := c.do(ctx, http.MethodPut,
		fmt.Sprintf("/v1/datasets/%s/tuples/%d", url.PathEscape(id), index),
		mutateRequest{Tuple: tuple, TimeoutMS: timeoutMS}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// DeleteTuple removes the tuple at a logical row handle; the handle
// becomes a hole, other handles are unaffected.
func (c *Client) DeleteTuple(ctx context.Context, id string, index int) (*MutateResponse, error) {
	var resp MutateResponse
	err := c.do(ctx, http.MethodDelete,
		fmt.Sprintf("/v1/datasets/%s/tuples/%d", url.PathEscape(id), index), nil, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Delete removes the session.
func (c *Client) Delete(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/datasets/"+url.PathEscape(id), nil, nil)
}

// Ready asks /readyz whether the server should receive traffic. A 503
// (recovering or draining) surfaces as an *APIError.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}
