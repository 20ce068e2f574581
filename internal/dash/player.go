package dash

import (
	"fmt"
	"slices"
	"time"

	"mpdash/internal/mptcp"
	"mpdash/internal/sim"
)

// DefaultBufferCap is the playback buffer capacity. 40 seconds fits the
// paper's §5.2.2 worked example (a quality level mapping to the 20–40 s
// buffer range).
const DefaultBufferCap = 40 * time.Second

// PlayerState is the snapshot handed to rate-adaptation algorithms and the
// MP-DASH video adapter before each chunk decision.
type PlayerState struct {
	// Now is the current virtual time.
	Now time.Duration
	// ChunkIndex is the chunk about to be fetched (0-based).
	ChunkIndex int
	// LastLevel is the ladder index of the previous chunk, -1 at start.
	LastLevel int
	// Buffer is the current buffer occupancy (seconds of content).
	Buffer time.Duration
	// BufferCap is the buffer capacity.
	BufferCap time.Duration
	// Video is the asset being played.
	Video *Video
	// ChunkThroughputs are the measured per-chunk download throughputs
	// (bits/s), oldest first — the raw material of the player's own
	// bandwidth estimation.
	ChunkThroughputs []float64
	// TransportEstimateBps is the multipath transport's aggregate
	// throughput estimate exposed through the §3.2 interface; zero when
	// no MP-DASH adapter is attached. Throughput-based algorithms use it
	// to override their own single-path-biased estimate (§5.2.1).
	TransportEstimateBps float64
}

// OwnEstimateBps is the player's built-in estimate: the last chunk's
// measured throughput (GPAC-style), 0 before any chunk.
func (st PlayerState) OwnEstimateBps() float64 {
	if len(st.ChunkThroughputs) == 0 {
		return 0
	}
	return st.ChunkThroughputs[len(st.ChunkThroughputs)-1]
}

// EffectiveEstimateBps returns the transport override when present, else
// the player's own estimate.
func (st PlayerState) EffectiveEstimateBps() float64 {
	if st.TransportEstimateBps > 0 {
		return st.TransportEstimateBps
	}
	return st.OwnEstimateBps()
}

// ChunkMeta identifies a chunk chosen for download.
type ChunkMeta struct {
	Index    int
	Level    int // ladder index (0-based)
	LevelID  int // paper's 1-based quality level
	Size     int64
	Duration time.Duration
	// NominalBps is the average encoding bitrate of the chosen level.
	NominalBps float64
}

// ChunkResult records one chunk: its download, and what playback did
// meanwhile. A Transport's Fetch fills Meta, Verdict and PathBytes.
type ChunkResult struct {
	// Meta is the chunk as delivered: a transport may lower its level,
	// and sizes it as its origin does.
	Meta          ChunkMeta
	Start, End    time.Duration
	ThroughputBps float64
	// Verdict is how the fetch ended. The start-up chunk is never Late:
	// no playback waits on it.
	Verdict Verdict
	// Stalled reports whether playback ran dry during this download.
	Stalled bool
	// StallTime is how long playback was frozen during this download,
	// one chunk duration for a Lost chunk.
	StallTime time.Duration
	// PathBytes is the per-path byte split of this chunk; nil from a
	// transport that keeps its own.
	PathBytes map[string]int64
	// BufferAfter is the buffer level right after the chunk was added.
	BufferAfter time.Duration
}

// Verdict is how a chunk fetch ended.
type Verdict int

// Verdicts.
const (
	// Landed: the chunk arrived within its deadline, or had none.
	Landed Verdict = iota
	// Late: the chunk arrived after its deadline.
	Late
	// Lost: the chunk never arrived; playback skips it and stalls for
	// its duration.
	Lost
)

// Transport is what the playback loop runs over: a clock, the §3.2
// estimate, and chunk fetches. NewPlayer builds the simulator's; a
// socket stack brings its own (netmp.Streamer).
type Transport interface {
	// Now is the session clock.
	Now() time.Duration
	// Play lets playback run for d with no fetch in flight.
	Play(d time.Duration)
	// Estimate is the aggregate throughput estimate (bits/s) exposed to
	// the rate adaptation (§3.2); 0 for none.
	Estimate() float64
	// Stopped reports whether the session ends before the next chunk.
	Stopped() bool
	// Fetch downloads the chunk meta names, chosen in state st, and
	// returns its result's Meta, Verdict and PathBytes. An error ends
	// the session.
	Fetch(st PlayerState, meta ChunkMeta) (ChunkResult, error)
	// Settle is handed each chunk's result once the loop has accounted
	// it.
	Settle(res ChunkResult)
}

// RateAdapter is a DASH rate-adaptation algorithm (FESTIVE, BBA, ...).
type RateAdapter interface {
	// Name identifies the algorithm in reports.
	Name() string
	// SelectLevel picks the ladder index for the next chunk.
	SelectLevel(st PlayerState) int
}

// Adapter is the MP-DASH video adapter hook (§5): it owns the deadline
// policy and the coupling to the kernel scheduler. A nil Adapter gives
// vanilla MPTCP playback.
type Adapter interface {
	// TransportEstimate returns the aggregate multipath throughput
	// estimate (bits/s) to expose to the rate adaptation; 0 for none.
	TransportEstimate() float64
	// OnChunkStart is called once the chunk's transfer exists but before
	// any data moves; the adapter decides whether to activate MP-DASH
	// and with what deadline.
	OnChunkStart(st PlayerState, meta ChunkMeta, tr *mptcp.Transfer)
}

// EventKind classifies player log events.
type EventKind int

// Event kinds.
const (
	EventChunkStart EventKind = iota
	EventChunkDone
	EventStall
	EventResume
	EventQualitySwitch
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventChunkStart:
		return "chunk-start"
	case EventChunkDone:
		return "chunk-done"
	case EventStall:
		return "stall"
	case EventResume:
		return "resume"
	case EventQualitySwitch:
		return "quality-switch"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one entry of the player's event log (the input the paper's
// multipath video analysis tool correlates with packet traces);
// Report.Events derives the log from the results.
type Event struct {
	Time  time.Duration
	Kind  EventKind
	Chunk int
	Level int // ladder index
}

// Player runs the playback loop: it waits for buffer room, lets the
// rate adaptation pick a level, fetches the chunk over its Transport, and
// accounts the buffer, stalls and switches. The simulator and the socket
// stack share it.
type Player struct {
	tr    Transport
	video *Video
	abr   RateAdapter

	// BufferCap defaults to DefaultBufferCap.
	BufferCap time.Duration

	buffer  time.Duration
	start   time.Duration // the session clock when Run began
	results []ChunkResult
}

// NewPlayer constructs a player over a simulated multipath connection.
func NewPlayer(s *sim.Simulator, conn *mptcp.Conn, video *Video, abr RateAdapter, adapter Adapter) (*Player, error) {
	if s == nil || conn == nil {
		return nil, fmt.Errorf("dash: nil simulator or connection")
	}
	return NewPlayerOver(&simTransport{sim: s, conn: conn, adapter: adapter}, video, abr)
}

// NewPlayerOver constructs a player over tr.
func NewPlayerOver(tr Transport, video *Video, abr RateAdapter) (*Player, error) {
	if err := video.Validate(); err != nil {
		return nil, err
	}
	if abr == nil {
		return nil, fmt.Errorf("dash: nil rate adapter")
	}
	return &Player{tr: tr, video: video, abr: abr, BufferCap: DefaultBufferCap}, nil
}

// Results returns the per-chunk results.
func (p *Player) Results() []ChunkResult { return p.results }

// Run plays numChunks chunks (0 or negative means the whole video) and
// returns the playback report. Playback is running once a chunk has
// landed, so lastLevel >= 0 is the playing state. A transport error ends
// the session: Run returns it with the report so far.
func (p *Player) Run(numChunks int) (*Report, error) {
	if numChunks <= 0 || numChunks > p.video.NumChunks {
		numChunks = p.video.NumChunks
	}
	p.start = p.tr.Now()
	lastLevel := -1
	throughputs := make([]float64, 0, numChunks)
	p.results = slices.Grow(p.results, numChunks)
	var err error
	for i := 0; i < numChunks && !p.tr.Stopped(); i++ {
		// Wait for buffer room: fetch the next chunk only when a full
		// chunk fits, producing the idle gaps of Fig. 1.
		if lastLevel >= 0 && p.buffer > p.BufferCap-p.video.ChunkDuration {
			drain := p.buffer - (p.BufferCap - p.video.ChunkDuration)
			p.tr.Play(drain)
			p.buffer = max(p.buffer-drain, 0)
		}

		st := PlayerState{
			Now:                  p.tr.Now(),
			ChunkIndex:           i,
			LastLevel:            lastLevel,
			Buffer:               p.buffer,
			BufferCap:            p.BufferCap,
			Video:                p.video,
			ChunkThroughputs:     throughputs,
			TransportEstimateBps: p.tr.Estimate(),
		}
		level := min(max(p.abr.SelectLevel(st), 0), p.video.HighestLevel())
		start := p.tr.Now()
		var res ChunkResult
		if res, err = p.tr.Fetch(st, p.video.Chunk(i, level)); err != nil {
			break
		}
		res.Start, res.End = start, p.tr.Now()
		dl := res.End - start
		switch {
		case res.Verdict == Lost:
			res.Stalled, res.StallTime = true, p.video.ChunkDuration
		case lastLevel < 0:
			// The start-up chunk's deadline only engages every path.
			res.Verdict = Landed
		case p.buffer >= dl:
			p.buffer -= dl
		default:
			res.Stalled, res.StallTime = true, dl-p.buffer
			p.buffer = 0
		}
		if res.Verdict != Lost {
			// Playback drained the buffer over the download; the chunk
			// refills it.
			p.buffer = min(p.buffer+p.video.ChunkDuration, p.BufferCap)
			res.BufferAfter = p.buffer
			if dl > 0 {
				res.ThroughputBps = float64(res.Meta.Size*8) / dl.Seconds()
				throughputs = append(throughputs, res.ThroughputBps)
			}
			lastLevel = res.Meta.Level // as delivered
		}
		p.results = append(p.results, res)
		p.tr.Settle(res)
	}
	return buildReport(p.video, p.abr.Name(), p.start, p.results), err
}

// simChunkTimeout aborts a simulated session if a single chunk takes this
// long: a safety net against dead links.
const simChunkTimeout = 10 * time.Minute

// simTransport fetches chunks over a simulated MPTCP connection, in
// virtual time. Its chunks always land: the simulator sets no deadline
// the player sees.
type simTransport struct {
	sim  *sim.Simulator
	conn *mptcp.Conn
	// adapter may be nil (vanilla MPTCP).
	adapter Adapter
	before  []int64 // per-path delivered bytes when the fetch began
}

func (t *simTransport) Now() time.Duration   { return t.sim.Now() }
func (t *simTransport) Play(d time.Duration) { t.sim.Advance(d) }
func (t *simTransport) Stopped() bool        { return false }
func (t *simTransport) Settle(ChunkResult)   {}

func (t *simTransport) Estimate() float64 {
	if t.adapter == nil {
		return 0
	}
	return t.adapter.TransportEstimate()
}

func (t *simTransport) Fetch(st PlayerState, meta ChunkMeta) (ChunkResult, error) {
	paths := t.conn.Paths()
	t.before = t.before[:0]
	for _, path := range paths {
		t.before = append(t.before, path.DeliveredBytes())
	}
	tr, err := t.conn.StartTransfer(meta.Size)
	if err != nil {
		return ChunkResult{}, fmt.Errorf("dash: chunk %d: %w", meta.Index, err)
	}
	if t.adapter != nil {
		t.adapter.OnChunkStart(st, meta, tr)
	}
	if !tr.RunUntilComplete(t.sim.Now() + simChunkTimeout) {
		return ChunkResult{}, fmt.Errorf("dash: chunk %d stuck after %v", meta.Index, simChunkTimeout)
	}
	// Drain events co-timed with the final byte so per-path byte
	// accounting sees every segment of this chunk.
	t.sim.AdvanceTo(t.sim.Now())
	d := ChunkResult{Meta: meta, PathBytes: make(map[string]int64, len(paths))}
	for i, path := range paths {
		d.PathBytes[path.Name] = path.DeliveredBytes() - t.before[i]
	}
	return d, nil
}
