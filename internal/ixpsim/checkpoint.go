package ixpsim

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"github.com/ixp-scrubber/ixpscrubber/internal/balance"
	"github.com/ixp-scrubber/ixpscrubber/internal/core"
	"github.com/ixp-scrubber/ixpscrubber/internal/dropper"
	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

// The pipeline checkpoint is the crash-recovery file: the balancer (RNG,
// in-progress bin, stats), the sliding window and — once trained — the
// full model bundle and the live drop program. Restoring it resumes the
// training stream bit-for-bit; only batches still in the ingest queue at
// crash time are lost, which mirrors what UDP loses anyway.
//
// Version 2 layout, integers big-endian like the record codec:
//
//	magic     [4]byte "IXCP"
//	version   uint32  (2)
//	seed      uint64  balancer seed the pipeline was built with
//	ingested  uint64  records through the balancer
//	model seq uint64  serving champion's sequence, 0 before the first
//	trained   uint8   0 or 1
//	balancer  section: uint32 n, n bytes of PCG state, int64 current
//	          minute, the six balance.Stats counters, then the
//	          in-progress bin as netflow wire records
//	window    section: netflow wire records
//	bundle    section: core.Scrubber.Save bytes, verbatim; empty untrained
//	drop      section: DROP1 rule list; empty without a live program
//	crc       uint32  CRC-32C of every byte before it
//
// A section is a uint64 byte length and that many bytes. The file is
// written once per training round on the round's own goroutine, so it is
// built in one pass into one buffer of exactly its size.
const (
	checkpointMagic   = "IXCP"
	checkpointVersion = 2

	checkpointHeaderSize = 4 + 4 + 8 + 8 + 8 + 1
	checkpointSections   = 4
	// balancerFixedSize is the balancer section without RNG state and bin.
	balancerFixedSize = 4 + 8 + 6*8
)

var (
	be         = binary.BigEndian
	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// SaveCheckpoint atomically persists the pipeline state to CheckpointPath.
// The queue consumer keeps running: balancer, ingested count and window are
// encoded inside one critical section, so the file is a consistent cut of
// the stream at any moment, not only at a quiescent training tick.
func (p *Pipeline) SaveCheckpoint(ctx context.Context) error {
	if p.cfg.CheckpointPath == "" {
		return errors.New("ixpsim: no checkpoint path configured")
	}
	start := time.Now()
	data, err := p.encodeCheckpoint()
	if err == nil {
		err = p.writer.Publish(ctx, p.cfg.CheckpointPath, data)
	}
	if p.tm != nil {
		p.tm.checkpointDuration.ObserveSince(start)
		if err != nil {
			p.tm.checkpointFailures.Inc()
		} else {
			p.tm.checkpoints.Inc()
			p.tm.checkpointBytes.Set(float64(len(data)))
		}
	}
	return err
}

func (p *Pipeline) encodeCheckpoint() ([]byte, error) {
	// The model and the drop program only change on the goroutine that
	// runs training rounds — the one checkpointing — so they are rendered
	// before the stream locks are taken.
	trained := p.trained.Load()
	var bundle bytes.Buffer
	if trained {
		if err := p.trainer.Save(&bundle); err != nil {
			return nil, fmt.Errorf("ixpsim: bundling model: %w", err)
		}
	}
	var modelSeq uint64
	if ch := p.champion.Load(); ch != nil {
		modelSeq = ch.seq
	}
	var drop []byte
	if p.drop != nil {
		if prog := p.drop.Program(); prog != nil && prog.Len() > 0 {
			drop = dropper.Marshal(prog.Rules())
		}
	}

	b, err := p.appendStream(trained, modelSeq, 8+bundle.Len()+8+len(drop)+4)
	if err != nil {
		return nil, err
	}
	b = be.AppendUint64(b, uint64(bundle.Len()))
	b = append(b, bundle.Bytes()...)
	b = be.AppendUint64(b, uint64(len(drop)))
	b = append(b, drop...)
	return be.AppendUint32(b, crc32.Checksum(b, castagnoli)), nil
}

// appendStream allocates the file's buffer — the header and stream
// sections it writes plus tail more bytes for the caller — and encodes
// header, balancer and window straight from the live state. balMu then
// winMu, nested, is the order flush → keep takes them; holding both makes
// bin, stats, ingested and window one cut: a bin flushing between two
// separate critical sections would put its records in both or in neither.
func (p *Pipeline) appendStream(trained bool, modelSeq uint64, tail int) ([]byte, error) {
	p.balMu.Lock()
	defer p.balMu.Unlock()
	st, err := p.bal.Checkpoint()
	if err != nil {
		return nil, err
	}
	p.winMu.Lock()
	defer p.winMu.Unlock()

	balLen := balancerFixedSize + len(st.RNG) + len(st.Buf)*netflow.RecordSize
	winLen := len(p.window) * netflow.RecordSize
	b := make([]byte, 0, checkpointHeaderSize+8+balLen+8+winLen+tail)

	b = append(b, checkpointMagic...)
	b = be.AppendUint32(b, checkpointVersion)
	b = be.AppendUint64(b, p.cfg.Seed)
	b = be.AppendUint64(b, p.ingested.Load())
	b = be.AppendUint64(b, modelSeq)
	if trained {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}

	b = be.AppendUint64(b, uint64(balLen))
	b = be.AppendUint32(b, uint32(len(st.RNG)))
	b = append(b, st.RNG...)
	b = be.AppendUint64(b, uint64(st.Cur))
	for _, v := range statsFields(&st.Stats) {
		b = be.AppendUint64(b, *v)
	}
	for i := range st.Buf {
		b = netflow.AppendRecord(b, &st.Buf[i])
	}

	b = be.AppendUint64(b, uint64(winLen))
	for i := range p.window {
		b = netflow.AppendRecord(b, &p.window[i])
	}
	return b, nil
}

// statsFields fixes the order the balancer counters are stored in.
func statsFields(s *balance.Stats) [6]*uint64 {
	return [6]*uint64{&s.In, &s.Out, &s.OutBH, &s.MinutesIn, &s.MinutesKept, &s.Late}
}

// checkpoint is a decoded file, nothing installed yet.
type checkpoint struct {
	ingested uint64
	modelSeq uint64
	trained  bool
	balancer balance.State[netflow.Record]
	window   []netflow.Record
	bundle   []byte
	drop     []byte
}

// decodeCheckpoint verifies and parses a version 2 file. Anything else —
// a version 1 JSON file included — is refused; the owner starts cold and
// the next round writes a version 2 file over it.
func decodeCheckpoint(data []byte) (*checkpoint, error) {
	if len(data) < 8 || string(data[:4]) != checkpointMagic {
		return nil, fmt.Errorf("ixpsim: unsupported checkpoint version: not a version %d file", checkpointVersion)
	}
	if v := be.Uint32(data[4:8]); v != checkpointVersion {
		return nil, fmt.Errorf("ixpsim: unsupported checkpoint version %d", v)
	}
	if len(data) < checkpointHeaderSize+checkpointSections*8+4 {
		return nil, errors.New("ixpsim: checkpoint truncated")
	}
	body := data[:len(data)-4]
	if crc32.Checksum(body, castagnoli) != be.Uint32(data[len(body):]) {
		return nil, errors.New("ixpsim: checkpoint checksum mismatch")
	}

	// body[8:16] is the seed: recorded for the operator, not read back —
	// the RNG state in the balancer section is what resumes the stream.
	cp := &checkpoint{ingested: be.Uint64(body[16:24]), modelSeq: be.Uint64(body[24:32])}
	switch body[32] {
	case 0:
	case 1:
		cp.trained = true
	default:
		return nil, errors.New("ixpsim: checkpoint trained flag is neither 0 nor 1")
	}

	r := sectionReader{b: body[checkpointHeaderSize:]}
	bal := sectionReader{b: r.section()}
	cp.balancer.RNG = bal.take(uint64(bal.uint32()))
	cp.balancer.Cur = int64(bal.uint64())
	for _, v := range statsFields(&cp.balancer.Stats) {
		*v = bal.uint64()
	}
	if bal.short {
		return nil, errors.New("ixpsim: checkpoint balancer section truncated")
	}
	var err error
	if cp.balancer.Buf, err = decodeRecords(bal.b); err != nil {
		return nil, fmt.Errorf("ixpsim: checkpoint bin: %w", err)
	}
	if cp.window, err = decodeRecords(r.section()); err != nil {
		return nil, fmt.Errorf("ixpsim: checkpoint window: %w", err)
	}
	cp.bundle = r.section()
	cp.drop = r.section()
	if r.short || len(r.b) != 0 {
		return nil, errors.New("ixpsim: checkpoint sections do not add up to the file")
	}
	return cp, nil
}

func decodeRecords(b []byte) ([]netflow.Record, error) {
	if len(b)%netflow.RecordSize != 0 {
		return nil, fmt.Errorf("%d bytes is not a whole number of records", len(b))
	}
	recs := make([]netflow.Record, len(b)/netflow.RecordSize)
	for i := range recs {
		netflow.DecodeRecord(b[i*netflow.RecordSize:], &recs[i])
	}
	return recs, nil
}

// sectionReader walks a byte slice. Running past the end sets short and
// yields nil and zeros from there on, so a decoder checks once, after the
// walk.
type sectionReader struct {
	b     []byte
	short bool
}

func (r *sectionReader) take(n uint64) []byte {
	if r.short || n > uint64(len(r.b)) {
		r.short = true
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *sectionReader) uint32() uint32 {
	if b := r.take(4); b != nil {
		return be.Uint32(b)
	}
	return 0
}

func (r *sectionReader) uint64() uint64 {
	if b := r.take(8); b != nil {
		return be.Uint64(b)
	}
	return 0
}

func (r *sectionReader) section() []byte { return r.take(r.uint64()) }

// RestoreCheckpoint loads CheckpointPath, if present, and resumes from it:
// the balancer continues its RNG stream mid-bin, the window carries over,
// and the saved model serves immediately (readiness flips true). A missing
// file is not an error — the pipeline simply starts cold. With a registry
// configured, the registry's champion (last-good version) takes over the
// serving slot regardless of checkpoint state, so a warm registry serves
// even before the first local training round; the drift reference is
// rebuilt at the next promotion.
func (p *Pipeline) RestoreCheckpoint() (bool, error) {
	restored, err := p.restoreCheckpointFile()
	p.restoreChampionFromRegistry()
	return restored, err
}

func (p *Pipeline) restoreCheckpointFile() (bool, error) {
	if p.cfg.CheckpointPath == "" {
		return false, nil
	}
	data, err := os.ReadFile(p.cfg.CheckpointPath)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if err := p.restoreCheckpoint(data); err != nil {
		return false, err
	}
	return true, nil
}

// restoreCheckpoint is all-or-nothing: every section is verified, decoded
// and loaded into locals before the first field of the pipeline changes,
// so a file that fails anywhere leaves exactly the cold pipeline its owner
// falls back to — not one running a foreign RNG stream and window.
func (p *Pipeline) restoreCheckpoint(data []byte) error {
	cp, err := decodeCheckpoint(data)
	if err != nil {
		return err
	}
	var model *core.Scrubber
	if cp.trained {
		if model, err = core.Load(bytes.NewReader(cp.bundle)); err != nil {
			return fmt.Errorf("ixpsim: restoring model: %w", err)
		}
	}
	var prog *dropper.Program
	if p.drop != nil && len(cp.drop) > 0 {
		rules, derr := dropper.Unmarshal(cp.drop)
		if derr != nil {
			// A corrupt embedded program degrades to the empty program the
			// stage already serves; the next round recompiles from fresh
			// verdicts. Not a restore failure.
			p.cfg.Log.Error("checkpointed drop program unreadable; starting with none", "err", derr)
		} else {
			prog = dropper.Compile(rules)
		}
	}

	p.balMu.Lock()
	p.winMu.Lock()
	// The balancer parses the RNG state before it changes anything: the
	// last step that can fail, and the first that installs.
	if err = p.bal.Restore(&cp.balancer); err == nil {
		p.window = cp.window
		p.ingested.Store(cp.ingested)
	}
	p.winMu.Unlock()
	p.balMu.Unlock()
	if err != nil {
		return err
	}
	if prog != nil {
		p.drop.Swap(prog)
	}
	if model != nil {
		if p.cfg.Metrics != nil {
			model.SetMetrics(core.RegisterMetrics(p.cfg.Metrics))
		}
		p.trainer = model
		// The restored model serves as champion at its checkpointed
		// sequence; the next trained round continues the count.
		for {
			cur := p.seq.Load()
			if cp.modelSeq <= cur || p.seq.CompareAndSwap(cur, cp.modelSeq) {
				break
			}
		}
		p.lifeMu.Lock()
		p.champion.Store(&served{s: model, seq: cp.modelSeq})
		p.lifeMu.Unlock()
		if p.lm != nil {
			p.lm.activeSeq.Set(float64(cp.modelSeq))
		}
		p.trained.Store(true)
	}
	p.cfg.Log.Info("pipeline state restored",
		"window_records", len(cp.window), "trained", cp.trained)
	return nil
}
