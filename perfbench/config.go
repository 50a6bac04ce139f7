package main

import "time"

// The benchmark's fixed settings. BENCHMARK.json has a fixed schema with
// no room for them, so the offered rates and dataset sizes live here;
// changing any of them changes the benchmark.

// Graph scales. Each offline job takes hundreds of milliseconds on a
// 2-core host; the serving graphs are small enough that one sweep costs a
// few milliseconds, so a run holds thousands of queries.
var (
	offlineRoad  = roadScale{Rows: 100, Cols: 100, Timesteps: 40, Pack: 8}
	offlineSW    = swScale{N: 16000, M: 2, Timesteps: 40, Pack: 8, SnapshotEvery: 8}
	servingRoad  = roadScale{Rows: 24, Cols: 24, Timesteps: 16, Pack: 4}
	ingestRoad   = roadScale{Rows: 40, Cols: 40, Timesteps: 24, Pack: 4, SnapshotEvery: 4}
	ingestSweepT = 16 // the ingest graph's delta is calibrated for a 16-timestep sweep
)

const (
	// partitions is the partition count of every dataset.
	partitions = 4
	// cores mirrors the -cores default of tsrun and tsserve.
	cores = 2
	// A run sets its stack up at least minSetups times, and again while
	// the set-ups took less than setupBudget, up to maxSetups; setup_s is
	// the median.
	minSetups   = 5
	maxSetups   = 25
	setupBudget = time.Second

	// Query mix of the serving workloads.
	hotSources  = 8    // TDSP sources are drawn from this pool
	tdspShare   = 0.70 // rest split between top-N and meme
	topNShare   = 0.20
	repeatShare = 0.15 // share of queries that exactly repeat an earlier one
	topN        = 10
	topNWindow  = 4
	memeTag     = "#meme"

	// ingest-live mix: TDSP from the hot pool, top-N over the newest
	// window, and meme pinned to the seed watermark.
	ingestTDSPShare = 0.50
	ingestTopNShare = 0.30
	// ingestCachePacks holds the 24 seed timesteps and the tail pack, so
	// query decodes come from appends, not from cache pressure.
	ingestCachePacks = 8
)

// Open-loop rates (requests per second) and rules.
const (
	// serve-hot caches all 4 packs of the serving dataset (16 timesteps in
	// packs of 4) and offers a rate well under its capacity.
	hotQueryRate  = 150.0
	hotCachePacks = 4

	ingestQueryRate  = 90.0
	ingestAppendRate = 10.0

	stallAbort = time.Second     // a phase whose queue wait passes this stops sending
	warmUp     = 2 * time.Second // untimed load at the nominal rate before measuring
)
