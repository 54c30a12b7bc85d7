package serve

import (
	"net/http/httptest"
	"testing"
)

// TestWireFieldNames pins the JSON field names of the wire types, written
// through the one JSON writer. The worker, the client and the coordinator
// share these types, so a renamed tag passes every round trip in this
// repository, yet breaks perfbench, which decodes its own structs, and
// every curl user.
func TestWireFieldNames(t *testing.T) {
	cases := []struct {
		v    any
		want string
	}{
		{CreateRequest{Name: "n", CSV: "x\n1\n", Path: "d.csv", Table1: "Letter", Scale: 0.5, Seed: 7,
			Eps: 1.5, Eta: 3, Kappa: 2, MaxNodes: 100, Index: "vp"},
			`{"name":"n","csv":"x\n1\n","path":"d.csv","table1":"Letter","scale":0.5,"seed":7,` +
				`"eps":1.5,"eta":3,"kappa":2,"max_nodes":100,"index":"vp"}`},
		{TupleRequest{Tuple: []any{1.5, "abc"}, TimeoutMS: 250},
			`{"tuple":[1.5,"abc"],"timeout_ms":250}`},
		{DetectRequest{Tuples: [][]any{{1.5, "abc"}}, Member: true},
			`{"tuples":[[1.5,"abc"]],"member":true}`},
		{DetectResponse{Eps: 1.5, Eta: 3, Results: []DetectResult{{Neighbors: 2, Outlier: true}}},
			`{"eps":1.5,"eta":3,"results":[{"neighbors":2,"outlier":true}]}`},
		{RepairRequest{Tuples: [][]any{{1.5, "abc"}}, TimeoutMS: 250},
			`{"tuples":[[1.5,"abc"]],"timeout_ms":250}`},
		{RepairResponse{
			Adjustments: []Adjustment{{Saved: true, Exhausted: true, Cost: 1.25,
				Tuple: []any{1.0, "abd"}, Adjusted: []string{"x", "name"}, Nodes: 12}},
			Saved: 1, Natural: 2, Exhausted: 1},
			`{"adjustments":[{"saved":true,"natural":false,"exhausted":true,"cost":1.25,` +
				`"tuple":[1,"abd"],"adjusted":["x","name"],"nodes":12}],"saved":1,"natural":2,"exhausted":1}`},
		{MutateResponse{Op: "update", Index: 4, Tuples: 40, Inliers: 35, Outliers: 5,
			Flipped: 1, Touched: 9, Neighbors: 6, Outlier: false},
			`{"op":"update","index":4,"tuples":40,"inliers":35,"outliers":5,` +
				`"flipped":1,"touched":9,"neighbors":6,"outlier":false}`},
		{ErrorResponse{Error: "boom", RequestID: "r1"},
			`{"error":"boom","request_id":"r1"}`},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		if err := WriteJSON(w, 200, tc.v); err != nil {
			t.Fatalf("%T: %v", tc.v, err)
		}
		if got := w.Body.String(); got != tc.want+"\n" {
			t.Errorf("%T:\n got %s\nwant %s", tc.v, got, tc.want)
		}
	}
}
