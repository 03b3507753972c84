package segment

import (
	"sort"
	"strings"
	"time"
)

// Group classifies a segment by its role in the pipeline, following the
// flowpipeline taxonomy: inputs originate the record stream, filters drop
// records, modifiers rewrite them, outputs deliver them to a sink. Every
// segment regardless of group forwards its stream to its successor (outputs
// included), except terminal segments (scrubber, tee).
type Group int

const (
	GroupInput Group = iota
	GroupFilter
	GroupModify
	GroupOutput
)

func (g Group) String() string {
	switch g {
	case GroupInput:
		return "input"
	case GroupFilter:
		return "filter"
	case GroupModify:
		return "modify"
	case GroupOutput:
		return "output"
	}
	return "unknown"
}

// FieldType is the value type of one segment config field.
type FieldType int

const (
	TypeString FieldType = iota
	TypeInt
	TypeFloat
	TypeBool
	TypeDuration
)

func (t FieldType) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeBool:
		return "bool"
	case TypeDuration:
		return "duration"
	}
	return "unknown"
}

// FieldSpec declares one config field of a segment: its type, whether it
// is required, its default, and its validity range.
type FieldSpec struct {
	Name     string
	Type     FieldType
	Required bool
	// Default is applied when the field is absent (ignored when Required).
	// Its dynamic type matches Type: string, int64, float64, bool, or
	// time.Duration.
	Default any
	// Min/Max bound numeric (int/float) and duration fields when MinSet /
	// MaxSet; bounds are inclusive.
	Min, Max       float64
	MinSet, MaxSet bool
	// Enum restricts a string field to a closed set.
	Enum []string
	Help string
}

// Spec declares one segment kind: its group, config schema, and builder.
type Spec struct {
	Kind  string
	Group Group
	Help  string
	// Fields is the closed config schema; unknown keys are rejected.
	Fields []FieldSpec
	// Terminal marks segments that consume the stream without forwarding
	// (scrubber, tee); they must sit last in their pipeline.
	Terminal bool
	// AnyPosition lifts the inputs-only-at-position-0 rule (diskbuffer,
	// which journals mid-stream and replays when first).
	AnyPosition bool
	// HasBranches marks the fan-out segment (tee), whose config carries
	// nested branch pipelines instead of scalar fields only.
	HasBranches bool
	// build constructs the runtime instance. next is the instrumented
	// emit into the downstream segment (nil for terminal segments or a
	// pipeline tail).
	build func(b *builder, sc *SegmentConfig, next EmitFunc) (Instance, error)
}

func (s *Spec) field(name string) *FieldSpec {
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			return &s.Fields[i]
		}
	}
	return nil
}

// specs is the closed registry of segment kinds.
var specs = map[string]*Spec{}

func register(s *Spec) {
	if _, dup := specs[s.Kind]; dup {
		panic("segment: duplicate spec " + s.Kind)
	}
	specs[s.Kind] = s
}

// Kinds lists the registered segment kinds, sorted.
func Kinds() []string {
	out := make([]string, 0, len(specs))
	for k := range specs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// intField/floatField/durField helpers keep the spec tables readable.
func intField(name string, def int64, min, max float64, help string) FieldSpec {
	return FieldSpec{Name: name, Type: TypeInt, Default: def, Min: min, Max: max, MinSet: true, MaxSet: true, Help: help}
}

func strField(name, def, help string) FieldSpec {
	return FieldSpec{Name: name, Type: TypeString, Default: def, Help: help}
}

func boolField(name string, def bool, help string) FieldSpec {
	return FieldSpec{Name: name, Type: TypeBool, Default: def, Help: help}
}

func durField(name string, def time.Duration, help string) FieldSpec {
	return FieldSpec{Name: name, Type: TypeDuration, Default: def, Min: 0, MinSet: true, Help: help}
}

func enumField(name, def string, enum []string, help string) FieldSpec {
	return FieldSpec{Name: name, Type: TypeString, Default: def, Enum: enum, Help: help}
}

func requiredStr(name, help string) FieldSpec {
	return FieldSpec{Name: name, Type: TypeString, Required: true, Help: help}
}

func init() {
	register(&Spec{
		Kind: "sflow", Group: GroupInput,
		Help: "UDP sFlow v5 listener converting flow samples to labeled records",
		Fields: []FieldSpec{
			strField("listen", ":6343", "UDP address to receive sFlow datagrams on"),
			intField("batch", 256, 1, 65536, "records per downstream batch"),
			durField("flush", 50*time.Millisecond, "partial-batch flush bound while the stream idles"),
		},
		build: buildSflow,
	})
	register(&Spec{
		Kind: "ipfix", Group: GroupInput,
		Help: "UDP IPFIX listener converting flow records to labeled records",
		Fields: []FieldSpec{
			strField("listen", ":4739", "UDP address to receive IPFIX messages on"),
			intField("batch", 256, 1, 65536, "records per downstream batch"),
			durField("flush", 50*time.Millisecond, "partial-batch flush bound while the stream idles"),
		},
		build: buildIpfix,
	})
	register(&Spec{
		Kind: "netflow", Group: GroupInput,
		Help: "reads a stored binary flow dataset (the netflow codec) and replays it",
		Fields: []FieldSpec{
			requiredStr("path", "flow dataset file to read"),
			intField("batch", 256, 1, 65536, "records per downstream batch"),
			enumField("clock", "virtual", []string{"virtual", "none"},
				"virtual drives the pipeline clock from record timestamps"),
		},
		build: buildNetflowFile,
	})
	register(&Spec{
		Kind: "replay", Group: GroupInput,
		Help: "replays captured frames from a pcap file as flow records, virtual-clock paced",
		Fields: []FieldSpec{
			requiredStr("path", "pcap file to replay (packet.PcapWriter format)"),
			intField("batch", 256, 1, 65536, "records per downstream batch"),
			intField("sampling-rate", 1, 1, 1<<31, "1:N sampling rate to scale packet/byte counts by"),
			enumField("clock", "virtual", []string{"virtual", "none"},
				"virtual drives the pipeline clock from frame timestamps"),
			FieldSpec{Name: "speed", Type: TypeFloat, Default: float64(0), Min: 0, MinSet: true,
				Help: "wall-clock pacing multiplier; 0 replays as fast as downstream allows"},
		},
		build: buildReplay,
	})
	register(&Spec{
		Kind: "diskbuffer", Group: GroupInput, AnyPosition: true,
		Help: "spill-to-disk WAL: journals batches before forwarding and replays leftover spill from a crashed run on start",
		Fields: []FieldSpec{
			requiredStr("dir", "directory holding the write-ahead spill files"),
			boolField("sync", false, "fsync the spill file after every batch"),
			intField("batch", 256, 1, 65536, "records per replayed batch"),
		},
		build: buildDiskbuffer,
	})
	register(&Spec{
		Kind: "dropper", Group: GroupFilter,
		Help: "compiled mitigation stage: drops records matching the live flat match program",
		Fields: []FieldSpec{
			strField("rules", "", "file of static drop rules compiled into the stage at build"),
		},
		build: buildDropper,
	})
	register(&Spec{
		Kind: "balance", Group: GroupFilter,
		Help: "per-minute balancer: keeps all blackholed plus an equal-sized benign sample",
		Fields: []FieldSpec{
			intField("seed", 0, 0, float64(1<<62), "benign sampling seed"),
			intField("batch", 256, 1, 65536, "records per downstream batch"),
		},
		build: buildBalance,
	})
	register(&Spec{
		Kind: "sample", Group: GroupFilter,
		Help: "deterministic 1-in-N downsampling of the record stream",
		Fields: []FieldSpec{
			intField("every", 1, 1, 1<<31, "keep every Nth record"),
		},
		build: buildSample,
	})
	register(&Spec{
		Kind: "scrubber", Group: GroupOutput, Terminal: true,
		Help: "the full detection chain: bounded queue, balancer, sliding window, two-step model, ACL writer",
		Fields: []FieldSpec{
			intField("seed", 0, 0, float64(1<<62), "balancer sampling seed"),
			durField("window", 24*time.Hour, "sliding training window"),
			intField("queue-cap", 64, 1, 1<<20, "ingest queue capacity in batches"),
			enumField("drop-policy", "drop-newest", []string{"block", "drop-newest", "drop-oldest"},
				"full-queue policy"),
			intField("min-train", 100, 1, 1<<31, "minimum balanced records before a round trains"),
			strField("acl", "", "file to atomically publish rendered ACLs to"),
			strField("rules-out", "", "file to export the mined rule list to"),
			strField("checkpoint", "", "file to persist pipeline state to (and restore from)"),
			strField("registry", "", "directory for the versioned model registry"),
			boolField("shadow", false, "hold new models as shadow challengers before promotion"),
			strField("import", "", "classifier-only bundle to import as the standing challenger on start"),
			boolField("sketch", false, "bounded-memory sketch aggregation"),
			FieldSpec{Name: "sketch-budget", Type: TypeFloat, Default: 0.05, Min: 0.0001, Max: 0.5,
				MinSet: true, MaxSet: true, Help: "relative exactness budget for sketch mode"},
			boolField("drop", false, "compile champion verdicts into the inline mitigation fast path"),
			strField("drop-rules", "", "file of static drop rules seeding the fast path"),
		},
		build: buildScrubber,
	})
	register(&Spec{
		Kind: "jsonl", Group: GroupOutput,
		Help: "archives every record as one JSON line, then forwards the stream",
		Fields: []FieldSpec{
			requiredStr("path", "archive file to write"),
		},
		build: buildJSONL,
	})
	register(&Spec{
		Kind: "csv", Group: GroupOutput,
		Help: "archives every record as one CSV row, then forwards the stream",
		Fields: []FieldSpec{
			requiredStr("path", "archive file to write"),
		},
		build: buildCSV,
	})
	register(&Spec{
		Kind: "metrics", Group: GroupOutput,
		Help: "terminal-friendly sink counting records, packets, bytes and blackholed share onto /metrics",
		Fields: []FieldSpec{
			strField("name", "sink", "label value for the ixps_pipeline_sink_* families"),
		},
		build: buildMetricsSink,
	})
	register(&Spec{
		Kind: "tee", Group: GroupOutput, Terminal: true, HasBranches: true,
		Help: "fan-out: every batch is delivered to each branch's bounded queue; branches consume concurrently",
		Fields: []FieldSpec{
			intField("queue-cap", 64, 1, 1<<20, "per-branch queue capacity in batches"),
			enumField("policy", "block", []string{"block", "drop-newest", "drop-oldest"},
				"per-branch full-queue policy"),
		},
		build: buildTee,
	})
}

// suggestKinds renders the registry for an unknown-kind error.
func suggestKinds() string { return strings.Join(Kinds(), ", ") }
