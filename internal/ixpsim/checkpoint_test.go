package ixpsim

// Checkpoint v2 tests: byte-exact round trips across pipeline states,
// all-or-nothing restore, corruption at every section, a consistent cut
// under concurrent ingest, the metrics, a fuzz target over the reader and
// the save/restore benchmarks.

import (
	"bytes"
	"context"
	"hash/crc32"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/obs"
	"github.com/ixp-scrubber/ixpscrubber/internal/synth"
)

// cpTraffic pre-generates the profile's traffic minute by minute, so two
// pipelines can be fed the same continuation.
func cpTraffic(prof synth.Profile, minutes int) [][]netflow.Record {
	gen := synth.NewGenerator(prof)
	out := make([][]netflow.Record, minutes)
	var buf []synth.Flow
	for m := range out {
		buf = gen.GenerateMinute(lcStart+int64(m), buf[:0])
		out[m] = synth.Records(buf)
	}
	return out
}

// cpRun is one pipeline plus the digest of everything its balancer kept.
type cpRun struct {
	p    *Pipeline
	kept uint64
}

func newCPRun(tb testing.TB, drop bool) *cpRun {
	r := &cpRun{kept: netflow.FNVOffset}
	r.p = NewPipeline(PipelineConfig{
		Seed:            lcProfile().Seed,
		MinTrainRecords: 64,
		Drop:            drop,
		CheckpointPath:  filepath.Join(tb.TempDir(), "checkpoint"),
		KeepHook:        func(rec netflow.Record) { r.kept = netflow.FoldRecord(r.kept, &rec) },
	})
	r.p.Writer().Backoff = lcBackoff()
	return r
}

// drive feeds minutes [from, to) and trains after every third.
func (r *cpRun) drive(tb testing.TB, traffic [][]netflow.Record, from, to int) []*Round {
	tb.Helper()
	var rounds []*Round
	for m := from; m < to; m++ {
		r.p.ingest(traffic[m])
		if (m+1)%3 == 0 {
			round, err := r.p.TrainRound(context.Background(), (lcStart+int64(m)+1)*60)
			if err != nil {
				tb.Fatalf("round after minute %d: %v", m, err)
			}
			rounds = append(rounds, round)
		}
	}
	return rounds
}

func (r *cpRun) save(tb testing.TB) []byte {
	tb.Helper()
	if err := r.p.SaveCheckpoint(context.Background()); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(r.p.cfg.CheckpointPath)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// cpStates are the pipeline states a checkpoint must carry exactly.
var cpStates = []struct {
	name   string
	drop   bool
	cut    int  // whole minutes fed before the checkpoint
	midBin bool // plus half of the next minute, left in the bin
}{
	{name: "untrained", cut: 2},
	{name: "trained", cut: 6},
	{name: "mid-bin", cut: 6, midBin: true},
	{name: "with-drop-program", drop: true, cut: 6, midBin: true},
}

// checkpointedRun drives a pipeline into one of cpStates and returns it
// with its checkpoint.
func checkpointedRun(tb testing.TB, traffic [][]netflow.Record, drop bool, cut int, midBin bool) (*cpRun, []byte) {
	tb.Helper()
	r := newCPRun(tb, drop)
	r.drive(tb, traffic, 0, cut)
	// A record with no source address, kept straight into the window: the
	// unset address must survive the record codec as unset.
	r.p.keep(netflow.Record{Timestamp: (lcStart + int64(cut)) * 60,
		DstIP: netip.MustParseAddr("198.51.100.7"), Packets: 1, Bytes: 64})
	if midBin {
		r.p.ingest(traffic[cut][:len(traffic[cut])/2])
	}
	return r, r.save(tb)
}

func TestCheckpointRoundTrip(t *testing.T) {
	const minutes = 15
	for _, st := range cpStates {
		t.Run(st.name, func(t *testing.T) {
			traffic := cpTraffic(lcProfile(), minutes)
			first, data := checkpointedRun(t, traffic, st.drop, st.cut, st.midBin)
			next := st.cut
			if st.midBin { // the first half of that minute is in the bin
				traffic[next] = traffic[next][len(traffic[next])/2:]
			}
			if trained := st.cut >= 3; first.p.Trained() != trained {
				t.Fatalf("state %q: trained = %v", st.name, first.p.Trained())
			}
			if st.drop && first.p.Dropper().Program().Len() == 0 {
				t.Fatal("no drop program to checkpoint")
			}

			second := newCPRun(t, st.drop)
			if err := os.WriteFile(second.p.cfg.CheckpointPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if restored, err := second.p.RestoreCheckpoint(); err != nil || !restored {
				t.Fatalf("restore: restored=%v err=%v", restored, err)
			}
			if again := second.save(t); !bytes.Equal(again, data) {
				t.Fatalf("save → restore → save changed the file (%d → %d bytes)", len(data), len(again))
			}
			w := second.p.WindowRecords()
			if last := w[len(w)-1]; last.SrcIP.IsValid() || last != first.p.WindowRecords()[len(w)-1] {
				t.Fatalf("unset source address came back as %v", last.SrcIP)
			}
			if st.drop && second.p.Dropper().Program().Len() != first.p.Dropper().Program().Len() {
				t.Fatal("drop program not restored")
			}

			// Same continuation, same behaviour: what the balancer keeps
			// from here on, every round and ACL, and the final state.
			second.kept = first.kept
			want := roundsKey(first.drive(t, traffic, next, minutes))
			got := roundsKey(second.drive(t, traffic, next, minutes))
			if got != want || !strings.Contains(want, "skip=false") {
				t.Fatalf("rounds after restore diverged:\n got:\n%s\nwant:\n%s", got, want)
			}
			if second.kept != first.kept {
				t.Fatal("kept-stream digest diverged after restore")
			}
			if !bytes.Equal(second.save(t), first.save(t)) {
				t.Fatal("final checkpoints differ")
			}
		})
	}
}

// cpOffsets returns where each of the four sections starts (at its length
// prefix) and where the checksum starts.
func cpOffsets(tb testing.TB, data []byte) [checkpointSections + 1]int {
	tb.Helper()
	var offs [checkpointSections + 1]int
	off := checkpointHeaderSize
	for i := 0; i < checkpointSections; i++ {
		offs[i] = off
		off += 8 + int(be.Uint64(data[off:]))
	}
	offs[checkpointSections] = off
	if off != len(data)-4 {
		tb.Fatalf("sections end at %d of %d bytes", off, len(data))
	}
	return offs
}

// resum returns data with its last four bytes replaced by the checksum of
// the rest: corruption the CRC cannot see, only the parsers behind it.
func resum(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	out := append([]byte(nil), data...)
	be.PutUint32(out[len(out)-4:], crc32.Checksum(out[:len(out)-4], castagnoli))
	return out
}

// requireCold fails unless p is indistinguishable from a pipeline that
// never saw a checkpoint.
func requireCold(tb testing.TB, p *Pipeline) {
	tb.Helper()
	fresh := NewPipeline(p.cfg)
	want, err := fresh.encodeCheckpoint()
	if err != nil {
		tb.Fatal(err)
	}
	got, err := p.encodeCheckpoint()
	if err != nil {
		tb.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		tb.Fatal("failed restore left state behind: balancer, window, ingested or model differ from a fresh pipeline")
	}
	if p.Trained() || p.Ingested() != 0 {
		tb.Fatalf("failed restore left trained=%v ingested=%d", p.Trained(), p.Ingested())
	}
	if p.drop != nil && p.drop.Program().Len() != 0 {
		tb.Fatal("failed restore installed a drop program")
	}
}

// TestRestoreIsAllOrNothing: a file whose checksum, balancer, window and
// drop program are all good but whose model bundle does not load must leave
// the pipeline cold — not cold with a foreign RNG stream and window.
func TestRestoreIsAllOrNothing(t *testing.T) {
	traffic := cpTraffic(lcProfile(), 7)
	_, data := checkpointedRun(t, traffic, true, 6, true)
	offs := cpOffsets(t, data)
	bad := append([]byte(nil), data...)
	bad[offs[2]+8] = 'X' // first byte of the bundle's JSON
	bad = resum(bad)

	p := newCPRun(t, true).p
	if err := os.WriteFile(p.cfg.CheckpointPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := p.RestoreCheckpoint()
	if err == nil || restored || !strings.Contains(err.Error(), "restoring model") {
		t.Fatalf("restored=%v err=%v, want a model error", restored, err)
	}
	requireCold(t, p)
}

func TestRestoreRejectsCorruption(t *testing.T) {
	traffic := cpTraffic(lcProfile(), 7)
	_, data := checkpointedRun(t, traffic, true, 6, true)
	offs := cpOffsets(t, data)
	sections := []string{"balancer", "window", "bundle", "drop", "crc"}

	type tc struct {
		name string
		data []byte
		msg  string // substring the error must carry; empty = any
	}
	cases := []tc{
		{"empty", nil, "unsupported checkpoint version"},
		{"v1 json", []byte(`{"version":1,"seed":7,"ingested":0,"balancer":{"rng":"","cur":0,"buf":[],"stats":{}},"window":[],"trained":false}`),
			"unsupported checkpoint version"},
		{"version 3", resum(append(append([]byte(checkpointMagic), 0, 0, 0, 3), data[8:]...)), "unsupported checkpoint version 3"},
		{"header only", data[:checkpointHeaderSize], ""},
		{"trailing byte", append(append([]byte(nil), data...), 0), ""},
		{"trained flag 2", resum(append(append(append([]byte(nil), data[:32]...), 2), data[33:]...)), "trained flag"},
	}
	for i, off := range offs {
		cases = append(cases,
			tc{"truncated at " + sections[i], data[:off], ""},
			tc{"truncated at " + sections[i] + ", checksummed", resum(append(data[:off:off], 0, 0, 0, 0)), ""},
			tc{"truncated inside " + sections[i], data[:off+2], ""})
		flipped := append([]byte(nil), data...)
		flipped[off+3] ^= 0x40 // in a length prefix, or in the checksum
		cases = append(cases, tc{"flipped length of " + sections[i], flipped, "checksum"},
			tc{"flipped length of " + sections[i] + ", checksummed", resum(flipped), ""})
		if i < checkpointSections {
			flipped = append([]byte(nil), data...)
			flipped[off+8+5] ^= 0x01 // in the payload
			cases = append(cases, tc{"flipped byte in " + sections[i], flipped, "checksum"})
		}
	}
	// A window that is not a whole number of records, under a good checksum.
	ragged := append([]byte(nil), data[:offs[1]]...)
	ragged = be.AppendUint64(ragged, 81)
	ragged = append(ragged, make([]byte, 81)...)
	ragged = append(ragged, data[offs[2]:]...)
	cases = append(cases, tc{"ragged window", resum(ragged), "whole number of records"})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newCPRun(t, true).p
			err := p.restoreCheckpoint(c.data)
			if err == nil {
				// Only a flip the checksum was recomputed over can pass: the
				// crc case, where resum undoes the flip.
				if !strings.HasSuffix(c.name, "crc, checksummed") {
					t.Fatal("corrupt checkpoint restored without error")
				}
				return
			}
			if !strings.Contains(err.Error(), c.msg) {
				t.Fatalf("error %q does not mention %q", err, c.msg)
			}
			requireCold(t, p)
		})
	}
}

// TestCheckpointConsistentUnderFeed checkpoints while the consumer
// goroutine ingests: every file must be one cut of the stream — each
// record the balancer has seen is counted in its stats or sits in the bin,
// never both, never neither, and the window is exactly what was kept.
func TestCheckpointConsistentUnderFeed(t *testing.T) {
	prof := lcProfile()
	traffic := cpTraffic(prof, 40)
	p := newCPRun(t, false).p
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Start(ctx)

	var wg sync.WaitGroup
	fed := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(fed)
		for _, minute := range traffic {
			for len(minute) > 0 {
				n := min(len(minute), 16)
				p.EmitBatch(minute[:n])
				minute = minute[n:]
			}
		}
	}()

	checked := 0
	for done := false; !done; {
		select {
		case <-fed:
			done = true // one more cut, after the last batch was offered
		default:
		}
		data, err := p.encodeCheckpoint()
		if err != nil {
			t.Fatal(err)
		}
		restored := NewPipeline(p.cfg)
		if err := restored.restoreCheckpoint(data); err != nil {
			t.Fatal(err)
		}
		bin, err := restored.bal.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if got := bin.Stats.In + uint64(len(bin.Buf)); got != restored.Ingested() {
			t.Fatalf("cut %d: stats.In %d + bin %d != ingested %d", checked, bin.Stats.In, len(bin.Buf), restored.Ingested())
		}
		if got := uint64(len(restored.WindowRecords())); got != bin.Stats.Out {
			t.Fatalf("cut %d: window holds %d records, balancer kept %d", checked, got, bin.Stats.Out)
		}
		checked++
	}
	wg.Wait()
	p.Stop()
	if checked < 2 {
		t.Fatalf("only %d cuts taken while feeding", checked)
	}
}

func TestCheckpointMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	fs := &failAfterFS{}
	p := NewPipeline(PipelineConfig{
		Seed:            lcProfile().Seed,
		MinTrainRecords: 64,
		CheckpointPath:  filepath.Join(t.TempDir(), "checkpoint"),
		FS:              fs,
		Metrics:         reg,
	})
	p.Writer().Backoff = lcBackoff()
	driveRounds(t, p, 3, 3, nil)
	info, err := os.Stat(p.cfg.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if p.tm.checkpoints.Value() != 1 || p.tm.checkpointFailures.Value() != 0 ||
		p.tm.checkpointDuration.Count() != 1 || p.tm.checkpointBytes.Value() != float64(info.Size()) {
		t.Fatalf("after one good checkpoint: ok=%d failed=%d timed=%d bytes=%v (file %d)",
			p.tm.checkpoints.Value(), p.tm.checkpointFailures.Value(),
			p.tm.checkpointDuration.Count(), p.tm.checkpointBytes.Value(), info.Size())
	}

	fs.arm()
	if err := p.SaveCheckpoint(context.Background()); err == nil {
		t.Fatal("checkpoint through a failing filesystem succeeded")
	}
	if p.tm.checkpoints.Value() != 1 || p.tm.checkpointFailures.Value() != 1 || p.tm.checkpointDuration.Count() != 2 {
		t.Fatalf("after a failed checkpoint: ok=%d failed=%d timed=%d",
			p.tm.checkpoints.Value(), p.tm.checkpointFailures.Value(), p.tm.checkpointDuration.Count())
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"ixps_checkpoints_total 1", "ixps_checkpoint_failures_total 1",
		"ixps_checkpoint_duration_seconds_count 2", "ixps_checkpoint_bytes "} {
		if !strings.Contains(text.String(), series) {
			t.Errorf("exposition lacks %q", series)
		}
	}
}

// FuzzRestoreCheckpoint: no input makes the reader panic, and an input it
// refuses leaves the pipeline cold. Every input is also tried with its
// checksum recomputed, so the fuzzer reaches the parsers behind the CRC.
func FuzzRestoreCheckpoint(f *testing.F) {
	traffic := cpTraffic(lcProfile(), 7)
	_, untrained := checkpointedRun(f, traffic, false, 2, false)
	_, trained := checkpointedRun(f, traffic, true, 6, true)
	f.Add(untrained)
	f.Add(trained)
	f.Add([]byte(`{"version":1,"seed":7,"window":[],"trained":false}`))
	for _, off := range cpOffsets(f, trained) {
		f.Add(trained[:off])
		f.Add(trained[:off+3])
		flipped := append([]byte(nil), trained...)
		flipped[off+3] ^= 0x40
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, d := range [][]byte{data, resum(data)} {
			p := NewPipeline(PipelineConfig{Seed: 1, Drop: true})
			if err := p.restoreCheckpoint(d); err != nil {
				requireCold(t, p)
			} else if _, err := p.encodeCheckpoint(); err != nil {
				t.Fatalf("restored state does not checkpoint: %v", err)
			}
		}
	})
}

// benchCheckpointPipeline builds what the retrain-cycle workload
// checkpoints every round: a ≈35k-record window and the default model
// fitted on it.
func benchCheckpointPipeline(b testing.TB) *Pipeline {
	b.Helper()
	prof := lcProfile()
	prof.BenignFlowsPerMin = 4000
	prof.TargetIPs = 600
	prof.BenignSrcIPs = 6000
	prof.EpisodeRatePerMin = 1
	prof.AttackFlowsPerMin = 120
	const want = 35_000
	p := NewPipeline(PipelineConfig{
		Seed:           prof.Seed,
		Drop:           true,
		CheckpointPath: filepath.Join(b.TempDir(), "checkpoint"),
	})
	gen := synth.NewGenerator(prof)
	var buf []synth.Flow
	m := lcStart
	for ; len(p.WindowRecords()) < want; m++ {
		buf = gen.GenerateMinute(m, buf[:0])
		p.ingest(synth.Records(buf))
	}
	if _, err := p.TrainRound(context.Background(), m*60); err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkSaveCheckpoint(b *testing.B) {
	p := benchCheckpointPipeline(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SaveCheckpoint(ctx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	info, err := os.Stat(p.cfg.CheckpointPath)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(info.Size()), "file-bytes")
	b.ReportMetric(float64(len(p.WindowRecords())), "window-records")
}

func BenchmarkRestoreCheckpoint(b *testing.B) {
	src := benchCheckpointPipeline(b)
	data, err := os.ReadFile(src.cfg.CheckpointPath)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewPipeline(src.cfg)
		if restored, err := p.RestoreCheckpoint(); err != nil || !restored {
			b.Fatalf("restored=%v err=%v", restored, err)
		}
	}
	b.ReportMetric(float64(len(data)), "file-bytes")
}
