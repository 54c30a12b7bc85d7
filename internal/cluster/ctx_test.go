package cluster

import (
	"context"
	"testing"
)

func TestDBSCANContextBackgroundMatchesDBSCAN(t *testing.T) {
	rel, _ := blobs(t, 3, 60, 41)
	cfg := DBSCANConfig{Eps: 2, MinPts: 4}
	plain := DBSCAN(rel, cfg)
	got, err := DBSCANContext(context.Background(), rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != plain.K {
		t.Fatalf("K = %d, want %d", got.K, plain.K)
	}
	for i := range plain.Labels {
		if got.Labels[i] != plain.Labels[i] {
			t.Fatalf("label[%d] = %d, want %d", i, got.Labels[i], plain.Labels[i])
		}
	}
}

func TestDBSCANContextCancelledReturnsPartial(t *testing.T) {
	rel, _ := blobs(t, 3, 60, 42)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := DBSCANContext(ctx, rel, DBSCANConfig{Eps: 2, MinPts: 4})
	if err != context.Canceled {
		t.Fatalf("cancelled DBSCANContext returned %v, want the context's error", err)
	}
	if len(res.Labels) != rel.N() {
		t.Fatalf("partial result has %d labels, want %d", len(res.Labels), rel.N())
	}
	for i, l := range res.Labels {
		if l != -1 {
			t.Fatalf("label[%d] = %d, want every tuple noise in a cancelled run", i, l)
		}
	}
	if res.K != 0 {
		t.Errorf("cancelled run reports K = %d, want 0", res.K)
	}
}

func TestKMeansContextBackgroundMatchesKMeans(t *testing.T) {
	rel, _ := blobs(t, 3, 60, 43)
	cfg := KMeansConfig{K: 3, Seed: 7, Restarts: 4}
	plain, err := KMeans(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := KMeansContext(context.Background(), rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Labels {
		if got.Labels[i] != plain.Labels[i] {
			t.Fatalf("parallel restarts broke determinism at label[%d]", i)
		}
	}
}

func TestKMeansContextCancelled(t *testing.T) {
	rel, _ := blobs(t, 3, 60, 44)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := KMeansContext(ctx, rel, KMeansConfig{K: 3, Seed: 7}); err == nil {
		t.Fatal("cancelled KMeansContext returned no error")
	}
}

func TestSREMContextBackgroundMatchesSREM(t *testing.T) {
	rel, _ := blobs(t, 2, 50, 45)
	cfg := SREMConfig{K: 2, Seed: 7, Restarts: 3, MaxIter: 30}
	plain, err := SREM(rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SREMContext(context.Background(), rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Labels {
		if got.Labels[i] != plain.Labels[i] {
			t.Fatalf("parallel restarts broke determinism at label[%d]", i)
		}
	}
}

func TestSREMContextCancelled(t *testing.T) {
	rel, _ := blobs(t, 2, 50, 46)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SREMContext(ctx, rel, SREMConfig{K: 2, Seed: 7}); err == nil {
		t.Fatal("cancelled SREMContext returned no error")
	}
}
