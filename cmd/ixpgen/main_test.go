package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
	"github.com/ixp-scrubber/ixpscrubber/internal/packet"
)

func TestRunBalanced(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.ixfr")
	if err := run("IXP-US2", 30, "2021-07-23", out, false, false, 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := netflow.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records written")
	}
	bh := 0
	for i := range recs {
		if err := recs[i].Validate(); err != nil {
			t.Fatalf("record %d invalid: %v", i, err)
		}
		if recs[i].Blackholed {
			bh++
		}
	}
	if bh == 0 || bh == len(recs) {
		t.Errorf("degenerate balance: %d of %d blackholed", bh, len(recs))
	}
}

func TestRunRawAndAnonymize(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.ixfr")
	anon := filepath.Join(dir, "anon.ixfr")
	if err := run("IXP-US2", 5, "2021-07-23", plain, true, false, 42); err != nil {
		t.Fatal(err)
	}
	if err := run("IXP-US2", 5, "2021-07-23", anon, true, true, 42); err != nil {
		t.Fatal(err)
	}
	read := func(p string) []netflow.Record {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		recs, err := netflow.NewReader(f).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	a, b := read(plain), read(anon)
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	same := 0
	for i := range a {
		if a[i].SrcIP == b[i].SrcIP {
			same++
		}
		if a[i].Bytes != b[i].Bytes || a[i].SrcPort != b[i].SrcPort {
			t.Fatal("anonymization must only touch addresses")
		}
	}
	if same > len(a)/100 {
		t.Errorf("%d of %d source IPs unchanged after anonymization", same, len(a))
	}
}

func TestRunSAS(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sas.ixfr")
	if err := run("SAS", 120, "2021-04-12", out, false, false, 0); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("empty SAS output")
	}
}

func TestRunPcap(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.pcap")
	if err := runPcap("IXP-US2", 2, "2021-07-23", out, 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r := packet.NewPcapReader(f)
	n := 0
	var p packet.Packet
	var fr packet.PcapFrame
	for {
		err := r.ReadInto(&fr)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Decode(fr.Data); err != nil {
			t.Fatalf("frame %d does not decode: %v", n, err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no frames")
	}
}

func TestRunUnknownProfile(t *testing.T) {
	if err := run("NOPE", 5, "2021-07-23", filepath.Join(t.TempDir(), "x"), false, false, 0); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if err := run("IXP-US2", 5, "not-a-date", filepath.Join(t.TempDir(), "x"), false, false, 0); err == nil {
		t.Fatal("bad date accepted")
	}
}
