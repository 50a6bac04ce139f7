package gofs

import (
	"testing"

	"tsgraph/internal/gen"
	"tsgraph/internal/partition"
)

// BenchmarkReadPack times decoding one full temporal pack — every
// partition's and bin's slice file — from a full-format (v1) and a
// delta-encoded (v2) copy of the same SMALLWORLD collection: latencies with
// 5% churn per timestep, SIR meme tweets and vertex loads. The page cache is
// warm after the first iteration, so this is the decode layer's own cost.
func BenchmarkReadPack(b *testing.B) {
	const steps, pack = 8, 8
	g := gen.SmallWorld(gen.SmallWorldConfig{N: 4000, M: 2, Seed: 1})
	c, err := gen.RandomLatencies(g, gen.LatencyConfig{Timesteps: steps, Delta: 10, Min: 1, Max: 20, Seed: 2, Churn: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	sir, err := gen.SIRTweets(g, gen.SIRConfig{
		Timesteps: steps, Delta: 10, Memes: []string{"#m"}, SeedsPerMeme: 5,
		HitProb: 0.05, RecoverAfter: 3, BackgroundTags: 20, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	ti := g.VertexSchema().Index(gen.AttrTweets)
	for s := 0; s < steps; s++ {
		c.Instance(s).VertexCols[ti] = sir.Collection.Instance(s).VertexCols[ti]
	}
	if err := gen.RandomLoads(c, 4, 0, 100); err != nil {
		b.Fatal(err)
	}
	a, err := (partition.BFSGrow{}).Partition(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	fullDir, deltaDir := writeBoth(b, c, a, pack, DefaultBin, pack)
	for _, tc := range []struct{ name, dir string }{{"v1", fullDir}, {"v2", deltaDir}} {
		b.Run(tc.name, func(b *testing.B) {
			s, err := Open(tc.dir)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := s.ReadPackDeltas(0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
