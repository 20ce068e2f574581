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

// ChunkResult records one completed chunk download.
type ChunkResult struct {
	Meta          ChunkMeta
	Start, End    time.Duration
	ThroughputBps float64
	// Stalled reports whether playback ran dry during this download.
	Stalled bool
	// StallTime is how long playback was frozen during this download.
	StallTime time.Duration
	// PathBytes is the per-path byte split of this chunk.
	PathBytes map[string]int64
	// BufferAfter is the buffer level right after the chunk was added.
	BufferAfter time.Duration
}

// RateAdapter is a DASH rate-adaptation algorithm (FESTIVE, BBA, ...).
type RateAdapter interface {
	// Name identifies the algorithm in reports.
	Name() string
	// SelectLevel picks the ladder index for the next chunk.
	SelectLevel(st PlayerState) int
	// OnChunkDone lets stateful algorithms update after each download.
	OnChunkDone(st PlayerState, res ChunkResult)
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
	// OnChunkDone is called when the chunk completes.
	OnChunkDone(st PlayerState, res ChunkResult)
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
// multipath video analysis tool correlates with packet traces).
type Event struct {
	Time  time.Duration
	Kind  EventKind
	Chunk int
	Level int // ladder index
	Note  string
}

// Player drives one playback session over a multipath connection.
type Player struct {
	sim   *sim.Simulator
	conn  *mptcp.Conn
	video *Video
	abr   RateAdapter
	// adapter may be nil (vanilla MPTCP).
	adapter Adapter

	// BufferCap defaults to DefaultBufferCap.
	BufferCap time.Duration
	// ChunkTimeout aborts a playback run if a single chunk takes this
	// long (a safety net against dead links). Default 10 minutes.
	ChunkTimeout time.Duration

	buffer  time.Duration
	playing bool

	events  []Event
	results []ChunkResult
}

// NewPlayer constructs a player.
func NewPlayer(s *sim.Simulator, conn *mptcp.Conn, video *Video, abr RateAdapter, adapter Adapter) (*Player, error) {
	if s == nil || conn == nil {
		return nil, fmt.Errorf("dash: nil simulator or connection")
	}
	if err := video.Validate(); err != nil {
		return nil, err
	}
	if abr == nil {
		return nil, fmt.Errorf("dash: nil rate adapter")
	}
	return &Player{
		sim:          s,
		conn:         conn,
		video:        video,
		abr:          abr,
		adapter:      adapter,
		BufferCap:    DefaultBufferCap,
		ChunkTimeout: 10 * time.Minute,
	}, nil
}

// Events returns the playback event log.
func (p *Player) Events() []Event { return p.events }

// Results returns the per-chunk results.
func (p *Player) Results() []ChunkResult { return p.results }

// state snapshots the current player state.
func (p *Player) state(chunk, lastLevel int, throughputs []float64) PlayerState {
	st := PlayerState{
		Now:              p.sim.Now(),
		ChunkIndex:       chunk,
		LastLevel:        lastLevel,
		Buffer:           p.buffer,
		BufferCap:        p.BufferCap,
		Video:            p.video,
		ChunkThroughputs: throughputs,
	}
	if p.adapter != nil {
		st.TransportEstimateBps = p.adapter.TransportEstimate()
	}
	return st
}

// Run plays numChunks chunks (0 or negative means the whole video) and
// returns the playback report.
func (p *Player) Run(numChunks int) (*Report, error) {
	if numChunks <= 0 || numChunks > p.video.NumChunks {
		numChunks = p.video.NumChunks
	}
	lastLevel := -1
	throughputs := make([]float64, 0, numChunks)
	p.results = slices.Grow(p.results, numChunks)
	p.events = slices.Grow(p.events, 2*numChunks) // a start and a done per chunk

	for i := 0; i < numChunks; i++ {
		// Wait for buffer room: fetch the next chunk only when a full
		// chunk fits, producing the idle gaps of Fig. 1.
		if p.playing && p.buffer > p.BufferCap-p.video.ChunkDuration {
			drain := p.buffer - (p.BufferCap - p.video.ChunkDuration)
			p.advancePlayback(drain)
		}

		st := p.state(i, lastLevel, throughputs)
		level := p.abr.SelectLevel(st)
		if level < 0 {
			level = 0
		}
		if level > p.video.HighestLevel() {
			level = p.video.HighestLevel()
		}
		meta := ChunkMeta{
			Index:      i,
			Level:      level,
			LevelID:    p.video.Levels[level].ID,
			Size:       p.video.ChunkSize(i, level),
			Duration:   p.video.ChunkDuration,
			NominalBps: p.video.Levels[level].AvgBitrateMbps * 1e6,
		}
		if lastLevel >= 0 && level != lastLevel {
			p.log(EventQualitySwitch, i, level, fmt.Sprintf("%d->%d", lastLevel, level))
		}
		p.log(EventChunkStart, i, level, "")

		before := map[string]int64{}
		for _, path := range p.conn.Paths() {
			before[path.Name] = path.DeliveredBytes()
		}

		tr, err := p.conn.StartTransfer(meta.Size)
		if err != nil {
			return nil, fmt.Errorf("dash: chunk %d: %w", i, err)
		}
		if p.adapter != nil {
			p.adapter.OnChunkStart(st, meta, tr)
		}
		start := p.sim.Now()
		if !tr.RunUntilComplete(start + p.ChunkTimeout) {
			return nil, fmt.Errorf("dash: chunk %d stuck after %v", i, p.ChunkTimeout)
		}
		// Drain events co-timed with the final byte so per-path byte
		// accounting sees every segment of this chunk.
		p.sim.AdvanceTo(p.sim.Now())
		end := p.sim.Now()
		dl := end - start

		res := ChunkResult{
			Meta:      meta,
			Start:     start,
			End:       end,
			PathBytes: map[string]int64{},
		}
		if dl > 0 {
			res.ThroughputBps = float64(meta.Size*8) / dl.Seconds()
		}
		for _, path := range p.conn.Paths() {
			res.PathBytes[path.Name] = path.DeliveredBytes() - before[path.Name]
		}

		// Buffer accounting over the download interval.
		if p.playing {
			if p.buffer >= dl {
				p.buffer -= dl
			} else {
				res.Stalled = true
				res.StallTime = dl - p.buffer
				p.log(EventStall, i, level, res.StallTime.String())
				p.buffer = 0
				p.playing = false
			}
		}
		p.buffer += p.video.ChunkDuration
		if p.buffer > p.BufferCap {
			p.buffer = p.BufferCap
		}
		res.BufferAfter = p.buffer
		if !p.playing {
			p.playing = true
			if i > 0 || res.Stalled {
				p.log(EventResume, i, level, "")
			}
		}
		p.log(EventChunkDone, i, level, "")

		throughputs = append(throughputs, res.ThroughputBps)
		stDone := p.state(i, level, throughputs)
		p.abr.OnChunkDone(stDone, res)
		if p.adapter != nil {
			p.adapter.OnChunkDone(stDone, res)
		}
		p.results = append(p.results, res)
		lastLevel = level
	}
	return buildReport(p.video, p.abr.Name(), p.results, p.events, p.conn), nil
}

// advancePlayback moves virtual time forward by d with playback running,
// draining the buffer.
func (p *Player) advancePlayback(d time.Duration) {
	p.sim.Advance(d)
	if p.buffer >= d {
		p.buffer -= d
	} else {
		p.buffer = 0
	}
}

func (p *Player) log(kind EventKind, chunk, level int, note string) {
	p.events = append(p.events, Event{
		Time:  p.sim.Now(),
		Kind:  kind,
		Chunk: chunk,
		Level: level,
		Note:  note,
	})
}
