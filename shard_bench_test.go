package disc_test

// Sharded vs unsharded detect/save at n=64k, the BENCH_9.json suite: the
// same clustered relation run through the single-node pipeline and
// through the ε-halo shard engine at S ∈ {1,2,4,8}. The sharded runs
// include the partitioning cost — the honest end-to-end comparison.
//
//	go test -bench BenchmarkShard -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	disc "repro"
)

// shardBenchSide³ rows form the inlier lattice (40³ = 64000, the n=64k
// workload); shardBenchNoise more are distant background noise (the
// outliers the save legs repair). The lattice spacing of 0.5 under ε=1
// gives every inlier ~32 neighbors — enough density to be firmly inside
// η without making full neighbor counting quadratic.
const (
	shardBenchSide  = 40
	shardBenchNoise = 96
)

var shardBenchCons = disc.Constraints{Eps: 1.0, Eta: 8}

var shardBench struct {
	once sync.Once
	rel  *disc.Relation
}

// shardBenchRelation builds the 64k workload once per process: a jittered
// 0.5-spaced lattice plus sparse uniform noise far outside it.
func shardBenchRelation(b *testing.B) *disc.Relation {
	b.Helper()
	shardBench.once.Do(func() {
		rng := rand.New(rand.NewSource(97))
		rel := disc.NewRelation(disc.NewNumericSchema("x", "y", "z"))
		jit := func() float64 { return (rng.Float64() - 0.5) * 0.1 }
		for i := 0; i < shardBenchSide; i++ {
			for j := 0; j < shardBenchSide; j++ {
				for k := 0; k < shardBenchSide; k++ {
					rel.Append(disc.Tuple{
						disc.Num(float64(i)*0.5 + jit()),
						disc.Num(float64(j)*0.5 + jit()),
						disc.Num(float64(k)*0.5 + jit()),
					})
				}
			}
		}
		for i := 0; i < shardBenchNoise; i++ {
			rel.Append(disc.Tuple{
				disc.Num(rng.Float64()*40 + 30),
				disc.Num(rng.Float64()*40 + 30),
				disc.Num(rng.Float64()*40 + 30),
			})
		}
		shardBench.rel = rel
	})
	return shardBench.rel
}

func benchShardDetect(b *testing.B, shards int) {
	rel := shardBenchRelation(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var det *disc.Detection
		var err error
		if shards <= 0 {
			det, err = disc.DetectContext(context.Background(), rel, shardBenchCons, nil)
		} else {
			det, _, err = disc.DetectSharded(context.Background(), rel, shardBenchCons,
				disc.ShardOptions{Shards: shards})
		}
		if err != nil {
			b.Fatal(err)
		}
		if len(det.Outliers) == 0 {
			b.Fatal("benchmark relation produced no outliers")
		}
	}
}

func BenchmarkShardDetectUnsharded(b *testing.B) { benchShardDetect(b, 0) }

func BenchmarkShardDetect(b *testing.B) {
	for _, s := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) { benchShardDetect(b, s) })
	}
}

func benchShardSave(b *testing.B, shards int) {
	rel := shardBenchRelation(b)
	opts := disc.Options{Kappa: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var res *disc.SaveResult
		var err error
		if shards <= 0 {
			res, err = disc.SaveContext(context.Background(), rel, shardBenchCons, opts)
		} else {
			res, _, err = disc.SaveSharded(context.Background(), rel, shardBenchCons,
				disc.ShardOptions{Shards: shards, Save: opts})
		}
		if err != nil {
			b.Fatal(err)
		}
		if res.Failed() != 0 {
			b.Fatalf("%d outliers not processed", res.Failed())
		}
	}
}

func BenchmarkShardSaveUnsharded(b *testing.B) { benchShardSave(b, 0) }

func BenchmarkShardSave(b *testing.B) {
	for _, s := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) { benchShardSave(b, s) })
	}
}
