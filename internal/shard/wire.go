package shard

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"tsgraph/internal/algorithms"
	"tsgraph/internal/serve"
)

// Request kinds, mirroring the serving tier's query classes.
const (
	reqTDSP = 1 + iota
	reqTopN
	reqMeme
)

// Request is one sweep scattered to every member of a replica group. All
// members receive the identical request; each executes its share over its
// owned partitions (joining the group mesh for TDSP/meme) and reports the
// partial it is authoritative for.
type Request struct {
	// ID is the router's sweep serial, echoed in the response.
	ID int64
	// Kind selects the sweep (reqTDSP, reqTopN, reqMeme).
	Kind int
	// WM is the watermark: the sweep sees exactly the first WM timesteps.
	WM int

	// TDSP: canonical batch queries departing at Depart.
	Depart  int
	Queries []algorithms.BatchQuery

	// TopN: rank vertices by Attr, N entries per step, Count steps from From.
	Attr  string
	N     int
	From  int
	Count int

	// Meme: spread of Tag; Probes are template vertex indices, sorted.
	Tag    string
	Probes []int32
}

// Arrival is one (source, target) TDSP answer from the target's owner.
type Arrival struct {
	SI      int32 // batch query index
	Target  int32 // template vertex index
	Arr     float64
	At      int32
	Reached bool
}

// probeNotOwned marks a ProbeAt slot answered by a different member.
const probeNotOwned = -2

// Response is one member's partial answer. TDSP arrivals and meme probes
// cover only the vertices whose partitions the member owns, so the union
// across a group's responses is exact with no overlap.
type Response struct {
	ID  int64
	Err string

	Arrivals []Arrival           // TDSP
	Steps    [][]serve.RankEntry // TopN: local per-step top-N
	Colored  int                 // Meme: colored count over owned partitions
	ProbeAt  []int32             // Meme: aligned with Request.Probes; probeNotOwned elsewhere

	// SweepNS is the member's wall-clock sweep time, for SpanShard spans.
	SweepNS int64
	// Rank is the responding global rank.
	Rank int
}

// check rejects a failed partial and one whose shape does not match its
// request, so a bad member fails its group over instead of crashing the
// merge.
func (resp *Response) check(req *Request) error {
	switch {
	case resp.Err != "":
		return errors.New(resp.Err)
	case req.Kind == reqMeme && len(resp.ProbeAt) != len(req.Probes):
		return fmt.Errorf("%d meme probe answers for %d probes", len(resp.ProbeAt), len(req.Probes))
	}
	return nil
}

// memberClient is the router's connection to one rank's RPC endpoint.
// Calls are serialized per member (the group lock already serializes
// sweeps, so there is never more than one request in flight per conn).
type memberClient struct {
	rank int
	addr string

	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func (m *memberClient) resetLocked() {
	if m.conn != nil {
		m.conn.Close()
	}
	m.conn, m.enc, m.dec = nil, nil, nil
}

// call sends one request and waits for its response, bounded by timeout.
// A stale connection (the rank restarted, or an idle conn died) fails the
// first encode; one redial retries it. A failure after the request went
// out is returned as-is — the router fails the whole group over to a
// replica rather than guessing about a half-executed sweep.
func (m *memberClient) call(req *Request, timeout time.Duration) (*Response, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if m.conn == nil {
			conn, err := net.DialTimeout("tcp", m.addr, 2*time.Second)
			if err != nil {
				return nil, fmt.Errorf("shard: rank %d: %w", m.rank, err)
			}
			m.conn, m.enc, m.dec = conn, gob.NewEncoder(conn), gob.NewDecoder(conn)
		}
		m.conn.SetDeadline(time.Now().Add(timeout))
		if err := m.enc.Encode(req); err != nil {
			m.resetLocked()
			if attempt == 0 {
				continue
			}
			return nil, fmt.Errorf("shard: rank %d: send: %w", m.rank, err)
		}
		var resp Response
		if err := m.dec.Decode(&resp); err != nil {
			m.resetLocked()
			return nil, fmt.Errorf("shard: rank %d: recv: %w", m.rank, err)
		}
		m.conn.SetDeadline(time.Time{})
		if resp.ID != req.ID {
			m.resetLocked()
			return nil, fmt.Errorf("shard: rank %d: response %d for request %d", m.rank, resp.ID, req.ID)
		}
		return &resp, nil
	}
}

func (m *memberClient) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resetLocked()
}
