package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"

	"repro/internal/serve"
)

// CreateDatasetCSV uploads an inline CSV and returns the built session.
func (c *Client) CreateDatasetCSV(ctx context.Context, name, csv string, p serve.BuildParams) (*serve.SessionInfo, error) {
	var info serve.SessionInfo
	err := c.do(ctx, http.MethodPost, "/v1/datasets", serve.CreateRequest{
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
func (c *Client) SaveTuple(ctx context.Context, id string, tuple []any, timeoutMS int) (*serve.Adjustment, error) {
	var adj serve.Adjustment
	err := c.do(ctx, http.MethodPost, "/v1/datasets/"+url.PathEscape(id)+"/save",
		serve.TupleRequest{Tuple: tuple, TimeoutMS: timeoutMS}, &adj)
	if err != nil {
		return nil, err
	}
	return &adj, nil
}

// Detect screens tuples against the session's cached index. member declares
// the tuples to be rows of the session's own dataset, excluding each one's
// stored copy from its neighbor count.
func (c *Client) Detect(ctx context.Context, id string, tuples [][]any, member bool) (*serve.DetectResponse, error) {
	var resp serve.DetectResponse
	err := c.do(ctx, http.MethodPost, "/v1/datasets/"+url.PathEscape(id)+"/detect",
		serve.DetectRequest{Tuples: tuples, Member: member}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// Repair saves a batch of outlier tuples against the session.
func (c *Client) Repair(ctx context.Context, id string, tuples [][]any, timeoutMS int) (*serve.RepairResponse, error) {
	var resp serve.RepairResponse
	err := c.do(ctx, http.MethodPost, "/v1/datasets/"+url.PathEscape(id)+"/repair",
		serve.RepairRequest{Tuples: tuples, TimeoutMS: timeoutMS}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// InsertTuple appends one tuple to the session's live dataset. The response
// carries the new row's logical handle, stable across later mutations (but
// not across a server restart after deletes). Note the retry layer can
// re-send after an ambiguous failure (timeout, 5xx mid-flight), so an
// insert may be applied twice; callers needing exactly-once should verify
// via the returned totals.
func (c *Client) InsertTuple(ctx context.Context, id string, tuple []any, timeoutMS int) (*serve.MutateResponse, error) {
	var resp serve.MutateResponse
	err := c.do(ctx, http.MethodPost, "/v1/datasets/"+url.PathEscape(id)+"/tuples",
		serve.TupleRequest{Tuple: tuple, TimeoutMS: timeoutMS}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// UpdateTuple replaces the tuple at a logical row handle.
func (c *Client) UpdateTuple(ctx context.Context, id string, index int, tuple []any, timeoutMS int) (*serve.MutateResponse, error) {
	var resp serve.MutateResponse
	err := c.do(ctx, http.MethodPut,
		fmt.Sprintf("/v1/datasets/%s/tuples/%d", url.PathEscape(id), index),
		serve.TupleRequest{Tuple: tuple, TimeoutMS: timeoutMS}, &resp)
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// DeleteTuple removes the tuple at a logical row handle; the handle
// becomes a hole, other handles are unaffected.
func (c *Client) DeleteTuple(ctx context.Context, id string, index int) (*serve.MutateResponse, error) {
	var resp serve.MutateResponse
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
