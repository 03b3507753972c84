package segment

import (
	"context"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/chaos"
	"github.com/ixp-scrubber/ixpscrubber/internal/ixpsim"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// segStart anchors simulated time (2021-01-01 UTC in unix minutes).
const segStart = int64(26_830_080)

// segProfile is a small vantage point with blackholed episodes every run,
// sized so a full pipeline test stays well under a second.
func segProfile() synth.Profile {
	p := synth.ProfileUS2()
	p.Name = "IXP-SEGMENT"
	p.Seed = 0xBEEF
	p.BenignFlowsPerMin = 96
	p.TargetIPs = 48
	p.BenignSrcIPs = 192
	p.EpisodeRatePerMin = 0.3
	p.EpisodeDurMeanMin = 6
	p.AttackFlowsPerMin = 24
	return p
}

// chaosListen hands out in-memory packet conns, so pipeline tests never
// bind real sockets.
func chaosListen(string, string) (net.PacketConn, error) {
	return chaos.NewPacketConn(), nil
}

// feedMinutes streams the profile's traffic minute by minute into emit (one
// batch per minute) and returns the total record count. Deterministic for a
// fixed profile seed, so two pipelines fed this way see identical streams.
func feedMinutes(prof synth.Profile, minutes int64, emit func([]netflow.Record)) uint64 {
	gen := synth.NewGenerator(prof)
	var buf []synth.Flow
	var total uint64
	for m := int64(0); m < minutes; m++ {
		buf = gen.GenerateMinute(segStart+m, buf[:0])
		recs := synth.Records(buf)
		total += uint64(len(recs))
		emit(recs)
	}
	return total
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestConfigEquivalentToHardwired pins the tentpole guarantee: the default
// YAML config assembles a pipeline bit-identical to the pre-PR hardwired
// daemon chain — same training round, same ACL bytes, same conservation
// counters — for the same input stream.
func TestConfigEquivalentToHardwired(t *testing.T) {
	const minutes = 10
	now := (segStart + minutes + 1) * 60
	clk := func() int64 { return now }
	ctx := context.Background()

	// Reference: the exact chain cmd/scrubberd wires from flags (see
	// run()): NewPipeline, RestoreCheckpoint, Start, EmitBatch from the
	// collector, TrainRound from the ticker.
	hwDir := t.TempDir()
	hw := ixpsim.NewPipeline(ixpsim.PipelineConfig{
		Window:          24 * time.Hour,
		QueueCap:        64,
		DropPolicy:      netflow.DropNewest,
		MinTrainRecords: 100,
		ACLPath:         filepath.Join(hwDir, "acls.txt"),
		CheckpointPath:  filepath.Join(hwDir, "scrubber.ckpt"),
		Clock:           clk,
	})
	if _, err := hw.RestoreCheckpoint(); err != nil {
		t.Fatal(err)
	}
	hw.Start(ctx)
	hwTotal := feedMinutes(segProfile(), minutes, hw.EmitBatch)
	waitFor(t, "hardwired drain", func() bool { return hw.Ingested() == hwTotal })
	hwRound, err := hw.TrainRound(ctx, now)
	if err != nil {
		t.Fatal(err)
	}
	hw.Stop()
	if hwRound.Skipped {
		t.Fatal("reference round skipped; profile too small to compare anything")
	}

	// Config-assembled side: the shipped default config, with its file
	// outputs pointed into the test dir.
	segDir := t.TempDir()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "pipelines", "default-scrubber.yml"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig("default-scrubber.yml", data)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pipeline[1].Params["acl"] = filepath.Join(segDir, "acls.txt")
	cfg.Pipeline[1].Params["checkpoint"] = filepath.Join(segDir, "scrubber.ckpt")
	p, err := New(Env{Clock: clk, ListenPacket: chaosListen}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	sp := p.Scrubber()
	if sp == nil {
		t.Fatal("no scrubber in default config")
	}
	segTotal := feedMinutes(segProfile(), minutes, p.Feed)
	if segTotal != hwTotal {
		t.Fatalf("input streams diverge: %d vs %d records", segTotal, hwTotal)
	}
	waitFor(t, "segment drain", func() bool { return sp.Ingested() == segTotal })
	segRound, err := sp.TrainRound(ctx, now)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Bit-exact round: verdicts, ACL text, rule count, model sequence.
	if !reflect.DeepEqual(hwRound, segRound) {
		t.Errorf("rounds diverge:\nhardwired: %+v\nsegment:   %+v", hwRound, segRound)
	}
	hwACL, err := os.ReadFile(filepath.Join(hwDir, "acls.txt"))
	if err != nil {
		t.Fatal(err)
	}
	segACL, err := os.ReadFile(filepath.Join(segDir, "acls.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(hwACL) != string(segACL) {
		t.Errorf("published ACL files diverge:\nhardwired:\n%s\nsegment:\n%s", hwACL, segACL)
	}

	// Conservation counters: ingest queue and balancer.
	hq, sq := hw.QueueStats(), sp.QueueStats()
	for _, c := range []struct {
		name   string
		hw, sg uint64
	}{
		{"queue records in", hq.RecordsIn.Load(), sq.RecordsIn.Load()},
		{"queue records out", hq.RecordsOut.Load(), sq.RecordsOut.Load()},
		{"queue dropped records", hq.DroppedRecords.Load(), sq.DroppedRecords.Load()},
		{"ingested", hw.Ingested(), sp.Ingested()},
	} {
		if c.hw != c.sg {
			t.Errorf("%s diverges: hardwired %d, segment %d", c.name, c.hw, c.sg)
		}
	}
	if hb, sb := hw.BalanceStats(), sp.BalanceStats(); hb != sb {
		t.Errorf("balance stats diverge: hardwired %+v, segment %+v", hb, sb)
	}
}

// writePcap renders the profile's flows as Ethernet frames into a pcap
// file and returns the frame count plus the set of blackholed targets.
func writePcap(t *testing.T, path string, prof synth.Profile, minutes int64) (int, map[string]bool) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := packet.NewPcapWriter(f)
	var b packet.Builder
	bh := map[string]bool{}
	gen := synth.NewGenerator(prof)
	var buf []synth.Flow
	frames := 0
	for m := int64(0); m < minutes; m++ {
		buf = gen.GenerateMinute(segStart+m, buf[:0])
		for i := range buf {
			fl := &buf[i]
			frame, err := synth.FrameFor(fl, &b)
			if err != nil {
				t.Fatal(err)
			}
			orig := int(fl.Bytes / fl.Packets)
			if err := w.WriteFrame(fl.Timestamp, 0, frame, orig); err != nil {
				t.Fatal(err)
			}
			frames++
			if fl.Blackholed {
				bh[fl.DstIP.String()] = true
			}
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return frames, bh
}

// TestReplayDualSinkConservation runs the shipped dual-sink example end to
// end: a pcap replay fans out through a tee into the scrubber and a JSONL
// archive, and every record is accounted for — ingested equals per-sink
// delivered plus counted drops on each branch.
func TestReplayDualSinkConservation(t *testing.T) {
	dir := t.TempDir()
	pcapPath := filepath.Join(dir, "capture.pcap")
	frames, bhSet := writePcap(t, pcapPath, segProfile(), 10)
	if len(bhSet) == 0 {
		t.Fatal("profile generated no blackholed flows")
	}

	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "pipelines", "dual-sink.yml"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadConfig("dual-sink.yml", data)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pipeline[0].Params["path"] = pcapPath
	for bi := range cfg.Pipeline[1].Branches {
		br := &cfg.Pipeline[1].Branches[bi]
		for i := range br.Pipeline {
			switch br.Pipeline[i].Kind {
			case "scrubber":
				br.Pipeline[i].Params["acl"] = filepath.Join(dir, "acls.txt")
			case "jsonl":
				br.Pipeline[i].Params["path"] = filepath.Join(dir, "archive.jsonl")
			}
		}
	}

	env := Env{
		Label: func(ip netip.Addr, _ int64) bool { return bhSet[ip.String()] },
	}
	p, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p.Start(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("replay never finished")
	}
	// A round against the replayed window exercises the detect branch all
	// the way to the ACL file, on virtual time.
	now := (segStart + 11) * 60
	waitForScrubber := p.Scrubber()
	if waitForScrubber == nil {
		t.Fatal("dual-sink config has no scrubber")
	}
	if err := p.Close(); err != nil { // drains tee queues and scrubber ingest
		t.Fatal(err)
	}
	round, err := waitForScrubber.TrainRound(ctx, now)
	if err != nil {
		t.Fatal(err)
	}
	if round.Skipped {
		t.Fatal("replayed traffic did not reach the training threshold")
	}
	if _, err := os.Stat(filepath.Join(dir, "acls.txt")); err != nil {
		t.Fatalf("detect branch published no ACL file: %v", err)
	}

	// Conservation ledger.
	replay := p.Instances()[0].(*replaySegment)
	tee := p.Instances()[1].(*teeSegment)
	emitted := replay.Emitted()
	if emitted != uint64(frames) {
		t.Fatalf("replay emitted %d records from %d frames (all frames must decode)", emitted, frames)
	}
	for _, branch := range []string{"detect", "archive"} {
		st := tee.BranchStats(branch)
		if st == nil {
			t.Fatalf("branch %q missing", branch)
		}
		in, out, dropped := st.RecordsIn.Load(), st.RecordsOut.Load(), st.DroppedRecords.Load()
		if in != emitted {
			t.Errorf("branch %q saw %d records, replay emitted %d", branch, in, emitted)
		}
		if in != out+dropped {
			t.Errorf("branch %q leaks records: in=%d out=%d dropped=%d", branch, in, out, dropped)
		}
	}

	// Archive branch: every record handed to the branch reached both sinks.
	archOut := tee.BranchStats("archive").RecordsOut.Load()
	jl := tee.BranchInstances("archive")[0].(*archiveSegment)
	ms := tee.BranchInstances("archive")[1].(*metricsSegment)
	if jl.Delivered() != archOut || jl.WriteErrors() != 0 {
		t.Errorf("jsonl delivered %d of %d (errors %d)", jl.Delivered(), archOut, jl.WriteErrors())
	}
	if ms.Delivered() != archOut {
		t.Errorf("metrics sink counted %d of %d", ms.Delivered(), archOut)
	}
	archive, err := os.ReadFile(filepath.Join(dir, "archive.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(archive), "\n"); uint64(lines) != jl.Delivered() {
		t.Errorf("archive holds %d lines, sink delivered %d", lines, jl.Delivered())
	}

	// Detect branch: tee output flows through the scrubber's own bounded
	// queue; ingested equals delivered there too once drained.
	detOut := tee.BranchStats("detect").RecordsOut.Load()
	sq := waitForScrubber.QueueStats()
	if sq.RecordsIn.Load() != detOut {
		t.Errorf("scrubber queue saw %d records, detect branch delivered %d", sq.RecordsIn.Load(), detOut)
	}
	if got, want := waitForScrubber.Ingested()+sq.DroppedRecords.Load(), detOut; got != want {
		t.Errorf("detect branch leaks records: ingested+dropped=%d, delivered=%d", got, want)
	}
}

// TestDiskbufferCrashRestart: a mid-stream diskbuffer journals every batch;
// after a simulated crash the next run replays the spill downstream before
// live traffic, and conservation holds across the incarnations.
func TestDiskbufferCrashRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := &Config{Name: "wal", Pipeline: []SegmentConfig{
		{Kind: "sflow"},
		{Kind: "diskbuffer", Params: map[string]any{"dir": dir}},
		{Kind: "metrics"},
	}}
	env := Env{ListenPacket: chaosListen}
	ctx := context.Background()

	// Run 1: feed, then crash without a clean Close.
	p1, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Start(ctx); err != nil {
		t.Fatal(err)
	}
	fed := feedMinutes(segProfile(), 4, p1.Feed)
	db1 := p1.Instances()[1].(*diskbufferSegment)
	sink1 := p1.Instances()[2].(*metricsSegment)
	if db1.Journaled() != fed {
		t.Fatalf("run 1 journaled %d of %d records", db1.Journaled(), fed)
	}
	if sink1.Delivered() != fed {
		t.Fatalf("run 1 delivered %d of %d records (journal must not eat the stream)", sink1.Delivered(), fed)
	}
	db1.crashForTest()
	_ = p1.Close() // the crashed diskbuffer leaves its spill behind

	spills, _ := filepath.Glob(filepath.Join(dir, "spill-*.wal"))
	if len(spills) != 1 {
		t.Fatalf("crash left %d spill files, want 1", len(spills))
	}

	// Run 2: restart over the same dir; the spill replays downstream
	// before new traffic, then a clean Close removes the new journal.
	p2, err := New(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.Start(ctx); err != nil {
		t.Fatal(err)
	}
	db2 := p2.Instances()[1].(*diskbufferSegment)
	sink2 := p2.Instances()[2].(*metricsSegment)
	if db2.Replayed() != fed {
		t.Fatalf("restart replayed %d of %d spilled records", db2.Replayed(), fed)
	}
	if sink2.Delivered() != fed {
		t.Fatalf("replayed records did not reach the sink: %d of %d", sink2.Delivered(), fed)
	}
	fed2 := feedMinutes(segProfile(), 2, p2.Feed)
	if sink2.Delivered() != fed+fed2 {
		t.Fatalf("run 2 delivered %d, want %d replayed + %d live", sink2.Delivered(), fed, fed2)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "spill-*.wal")); len(left) != 0 {
		t.Fatalf("clean shutdown left spill files behind: %v", left)
	}
}

// TestDiskbufferHeadReplay: at the head of a pipeline the diskbuffer is a
// finite replay-only input — it drains a crashed run's spill and closes
// Done.
func TestDiskbufferHeadReplay(t *testing.T) {
	dir := t.TempDir()
	// A leftover spill, as a crashed run would leave it.
	f, err := os.Create(filepath.Join(dir, "spill-0001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	w := netflow.NewWriter(f)
	var written uint64
	feedMinutes(segProfile(), 2, func(recs []netflow.Record) {
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
			written++
		}
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cfg := &Config{Name: "drain", Pipeline: []SegmentConfig{
		{Kind: "diskbuffer", Params: map[string]any{"dir": dir}},
		{Kind: "metrics"},
	}}
	p, err := New(Env{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("head diskbuffer never finished replaying")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	db := p.Instances()[0].(*diskbufferSegment)
	sink := p.Instances()[1].(*metricsSegment)
	if db.Replayed() != written || sink.Delivered() != written {
		t.Fatalf("replayed %d, delivered %d, want %d", db.Replayed(), sink.Delivered(), written)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "spill-*.wal")); len(left) != 0 {
		t.Fatalf("replayed spill not removed: %v", left)
	}
}

// TestSampleCSVChain composes filters and archives through Feed: a 1-in-2
// sample halves the stream before the CSV tap, and the tap forwards what it
// writes to the terminal metrics sink.
func TestSampleCSVChain(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "flows.csv")
	cfg := &Config{Name: "csvchain", Pipeline: []SegmentConfig{
		{Kind: "sflow"},
		{Kind: "sample", Params: map[string]any{"every": 2}},
		{Kind: "csv", Params: map[string]any{"path": csvPath}},
		{Kind: "metrics"},
	}}
	p, err := New(Env{ListenPacket: chaosListen}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	fed := feedMinutes(segProfile(), 2, p.Feed)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	want := fed / 2
	csvSeg := p.Instances()[2].(*archiveSegment)
	sink := p.Instances()[3].(*metricsSegment)
	if csvSeg.Delivered() != want || sink.Delivered() != want {
		t.Fatalf("csv wrote %d, sink saw %d, want %d of %d fed", csvSeg.Delivered(), sink.Delivered(), want, fed)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if uint64(lines) != want+1 { // +1 header
		t.Fatalf("csv holds %d lines, want %d rows + header", lines, want)
	}
	if !strings.HasPrefix(string(data), csvHeader) {
		t.Fatalf("csv missing header, starts with %q", string(data)[:40])
	}
}

// TestSegmentPanicIsolation: a panicking segment loses that one batch and
// keeps the pipeline alive, with the panic counted per segment.
func TestSegmentPanicIsolation(t *testing.T) {
	reg := obs.NewRegistry()
	env := Env{Metrics: reg}
	b := &builder{env: &env, cfg: &Config{Name: "t"}}
	b.pm = newPipelineMetrics(reg)
	boom := &panicOnce{}
	bs := &builtSegment{kind: "boom", label: "1:boom", inst: boom}
	enter := instrument(b, bs)

	recs := make([]netflow.Record, 3)
	enter(recs) // must not propagate the panic
	enter(recs)
	if boom.batches != 1 {
		t.Fatalf("segment saw %d batches after the panic, want 1", boom.batches)
	}
	if got := b.pm.panics.With("1:boom").Value(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
	if got := b.pm.batches.With("1:boom").Value(); got != 2 {
		t.Fatalf("batch counter = %d, want 2", got)
	}
	if got := b.pm.records.With("1:boom").Value(); got != 6 {
		t.Fatalf("record counter = %d, want 6", got)
	}
}

type panicOnce struct {
	panicked bool
	batches  int
}

func (s *panicOnce) EmitBatch([]netflow.Record) {
	if !s.panicked {
		s.panicked = true
		panic("segment blew up")
	}
	s.batches++
}
func (s *panicOnce) Start(context.Context) error { return nil }
func (s *panicOnce) Close() error                { return nil }

// Delivered returns records written to the archive so far.
func (s *archiveSegment) Delivered() uint64 { return s.delivered.Load() }

// WriteErrors returns records lost to write failures.
func (s *archiveSegment) WriteErrors() uint64 { return s.errs.Load() }

// BranchStats returns the named branch's queue conservation counters.
func (t *teeSegment) BranchStats(name string) *netflow.QueueStats {
	for _, br := range t.branches {
		if br.name == name {
			return &br.queue.Stats
		}
	}
	return nil
}

// BranchInstances returns the named branch's segment instances head-first.
func (t *teeSegment) BranchInstances(name string) []Instance {
	for _, br := range t.branches {
		if br.name == name {
			out := make([]Instance, len(br.segs))
			for i, s := range br.segs {
				out[i] = s.inst
			}
			return out
		}
	}
	return nil
}

// crashForTest simulates an unclean exit for the chaos scenario: the spill
// file handle closes (flushed data survives) but the file is NOT removed,
// exactly as if the process had died.
func (s *diskbufferSegment) crashForTest() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.f != nil {
		_ = s.f.Close()
		s.f, s.w = nil, nil
	}
}

// Emitted returns how many records this input has delivered downstream.
func (s *fileInput) Emitted() uint64 { return s.emitted.Load() }
