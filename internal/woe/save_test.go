package woe

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"testing"
)

// referenceSave is Save as it was before it was written by hand: copy every
// map into a string-keyed one and let encoding/json order and format it.
// TestSaveMatchesEncodingJSON holds Save to it byte for byte.
func referenceSave(e *Encoder) ([]byte, error) {
	toJSON := func(m map[uint64]uint64) map[string]uint64 {
		out := make(map[string]uint64, len(m))
		for k, v := range m {
			out[strconv.FormatUint(k, 10)] = v
		}
		return out
	}
	out := encoderJSON{
		PosTotal:  e.posTotal,
		NegTotal:  e.negTotal,
		Domains:   make(map[string]domainJSON),
		Overrides: make(map[string]map[string]float64),
	}
	for name, d := range e.domains {
		out.Domains[name] = domainJSON{Pos: toJSON(d.pos), Neg: toJSON(d.neg)}
	}
	for name, ov := range e.overrides {
		if len(ov) == 0 {
			continue
		}
		m := make(map[string]float64, len(ov))
		for k, v := range ov {
			m[strconv.FormatUint(k, 10)] = v
		}
		out.Overrides[name] = m
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&out)
	return buf.Bytes(), err
}

// edgeKeys are the keys where decimal-string order and numeric order part
// ways, or where a rank could overflow.
var edgeKeys = []uint64{0, 1, 9, 10, 19, 100, 109, 1e18, 1e18 + 1, 1e19 - 1, 1e19, 1e19 + 1,
	1e19 + 10, 12345678901234567890, 1234567890123456789, 123456789012345678,
	math.MaxUint64, math.MaxUint64 - 1, math.MaxUint64 / 10, 1 << 63, 1<<63 | 1}

func randomKey(rng *rand.Rand) uint64 {
	switch rng.IntN(4) {
	case 0:
		return edgeKeys[rng.IntN(len(edgeKeys))]
	case 1:
		return rng.Uint64N(70000) // ports, protocols
	case 2:
		return uint64(rng.Uint32()) // v4 addresses
	default:
		return rng.Uint64() >> rng.IntN(64)
	}
}

func TestSaveMatchesEncodingJSON(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x5AFE))
		e := NewEncoder()
		domains := []string{"src_ip", "dst_port", "proto", "<a&b>", "münchen \"q\"", ""}
		for _, name := range domains[:rng.IntN(len(domains)+1)] {
			for n := rng.IntN(400); n > 0; n-- {
				e.Observe(name, randomKey(rng), rng.IntN(2) == 0)
			}
		}
		if trial%3 == 0 {
			e.domain("never-observed") // empty pos and neg
			e.Observe("neg-only", 7, false)
		}
		if trial%2 == 0 {
			for n := rng.IntN(12); n > 0; n-- {
				e.Override(domains[rng.IntN(len(domains))], randomKey(rng),
					[]float64{0, -3.5, 1e-9, 2.5e21, 1e21, 123456.789, -1e-7, math.Pi}[rng.IntN(8)])
			}
			e.overrides["cleared"] = map[uint64]float64{} // an empty override map
		}
		want, err := referenceSave(e)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := e.Save(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("trial %d: Save differs from encoding/json\n got: %s\nwant: %s", trial, got.Bytes(), want)
		}
		if _, err := Load(&got); err != nil {
			t.Fatalf("trial %d: loading hand-written output: %v", trial, err)
		}
	}
}

func TestSaveRejectsNonFiniteOverride(t *testing.T) {
	e := NewEncoder()
	e.Override("src_ip", 1, math.Inf(1))
	if _, err := referenceSave(e); err == nil {
		t.Fatal("encoding/json accepted +Inf: the reference no longer refuses it")
	}
	if err := e.Save(new(bytes.Buffer)); err == nil {
		t.Fatal("Save accepted a +Inf override")
	}
}

// TestSortDecimalIsStringOrder checks the ordering argument on its own.
func TestSortDecimalIsStringOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	m := map[uint64]struct{}{}
	for _, k := range edgeKeys {
		m[k] = struct{}{}
	}
	for i := 0; i < 5000; i++ {
		m[randomKey(rng)] = struct{}{}
	}
	want := make([]string, 0, len(m))
	for k := range m {
		want = append(want, strconv.FormatUint(k, 10))
	}
	sort.Strings(want)
	got := sortDecimal(nil, m)
	if len(got) != len(want) {
		t.Fatalf("%d keys in, %d out", len(want), len(got))
	}
	for i, e := range got {
		if got := strconv.FormatUint(e.key, 10); got != want[i] {
			t.Fatalf("position %d: got %s, want %s", i, got, want[i])
		}
	}
}
