package shard

import (
	"bytes"
	"encoding/gob"
	"testing"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/gen"
)

// FuzzRankRequest decodes arbitrary bytes as a shard RPC request and hands
// the result to a rank, which must answer — with an error response when
// the request is malformed — and never panic.
func FuzzRankRequest(f *testing.F) {
	g, parts, a, src := fixture(f)
	_, ranks := bootShard(f, g, parts, a, src, 1, 1)
	for _, req := range []Request{
		{Kind: reqMeme, WM: fixSteps, Tag: fixMeme, Probes: []int32{1 << 20}},
		{Kind: reqMeme, WM: fixSteps, Tag: fixMeme, Probes: []int32{-1}},
		{Kind: reqMeme, WM: fixSteps, Tag: fixMeme, Probes: []int32{0, 63}},
		{Kind: reqTDSP, WM: fixSteps, Depart: 1, Queries: []algorithms.BatchQuery{{Source: 0, Targets: []int{63}}}},
		{Kind: reqTDSP, WM: fixSteps, Queries: []algorithms.BatchQuery{{Source: 9, Targets: []int{1 << 20}}}},
		{Kind: reqTopN, WM: fixSteps, Attr: gen.AttrLoad, N: 3, From: 1, Count: 2},
		{Kind: reqTopN, WM: fixSteps + 5, Attr: gen.AttrTweets, N: -1},
		{Kind: 7, WM: -1},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&req); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if gob.NewDecoder(bytes.NewReader(data)).Decode(&req) != nil {
			return
		}
		ranks[0].handle(&req)
	})
}
