package acl

import (
	"net/netip"
	"strings"
	"testing"

	"github.com/ixp-scrubber/ixpscrubber/internal/tagging"
)

func ntpRule(status tagging.Status) tagging.Rule {
	return tagging.Rule{
		ID: "ntp01",
		Antecedent: []tagging.Item{
			tagging.NewItem(tagging.FieldProtocol, 17),
			tagging.NewItem(tagging.FieldSrcPort, 123),
		},
		Confidence: 0.97,
		Support:    0.026,
		Status:     status,
	}
}

// ForRules scopes every accepted rule to all destinations.
func ForRules(rules []tagging.Rule, action Action) []Entry {
	out := make([]Entry, 0, len(rules))
	for _, r := range rules {
		if r.Status != tagging.StatusAccept {
			continue
		}
		out = append(out, Entry{Rule: r, Action: action})
	}
	return out
}

func TestForRulesSkipsUnaccepted(t *testing.T) {
	entries := ForRules([]tagging.Rule{ntpRule(tagging.StatusAccept), ntpRule(tagging.StatusStaging)}, ActionDrop)
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1 (staging rule excluded)", len(entries))
	}
}

func TestForTargetsSkipsUnaccepted(t *testing.T) {
	rules := []tagging.Rule{ntpRule(tagging.StatusAccept), ntpRule(tagging.StatusStaging), ntpRule(tagging.StatusAccept)}
	targets := []netip.Addr{netip.MustParseAddr("198.51.100.7"), netip.MustParseAddr("198.51.100.8")}
	entries := ForTargets(rules, targets, ActionMonitor)
	if len(entries) != 4 {
		t.Fatalf("entries = %d, want 4 (2 accepted rules x 2 targets, staging rule excluded)", len(entries))
	}
	for _, e := range entries {
		if e.Rule.Status != tagging.StatusAccept || e.Action != ActionMonitor {
			t.Errorf("entry %+v", e)
		}
	}
}

func TestForTargetsPrefixLength(t *testing.T) {
	for _, tc := range []struct {
		addr string
		bits int
	}{
		{"198.51.100.7", 32},
		{"2001:db8::7", 128},
		{"::ffff:198.51.100.7", 32}, // an IPv4 target carried in IPv6 is still one host
	} {
		a := netip.MustParseAddr(tc.addr)
		entries := ForTargets([]tagging.Rule{ntpRule(tagging.StatusAccept)}, []netip.Addr{a}, ActionDrop)
		if len(entries) != 1 {
			t.Fatalf("%s: entries = %d", tc.addr, len(entries))
		}
		if got := entries[0].Target; got.Bits() != tc.bits || !got.Contains(a) {
			t.Errorf("%s: target = %s, want a /%d holding the address", tc.addr, got, tc.bits)
		}
	}
}

func TestForTargetsScopesToVictim(t *testing.T) {
	victim := netip.MustParseAddr("198.51.100.7")
	entries := ForTargets([]tagging.Rule{ntpRule(tagging.StatusAccept)}, []netip.Addr{victim}, ActionDrop)
	if len(entries) != 1 || entries[0].Target != netip.PrefixFrom(victim, 32) || entries[0].Action != ActionDrop {
		t.Fatalf("entries = %+v, want one drop entry scoped to %s/32", entries, victim)
	}
	if entries[0].Target.Contains(netip.MustParseAddr("203.0.113.5")) {
		t.Error("entry must not apply to other destinations")
	}
}

func TestRenderText(t *testing.T) {
	victim := netip.MustParseAddr("198.51.100.7")
	frag := tagging.Rule{
		ID:         "frag1",
		Antecedent: []tagging.Item{tagging.NewItem(tagging.FieldProtocol, 17), tagging.NewItem(tagging.FieldFragment, 1)},
		Confidence: 0.92, Support: 0.01, Status: tagging.StatusAccept,
	}
	entries := ForTargets([]tagging.Rule{ntpRule(tagging.StatusAccept), frag}, []netip.Addr{victim}, ActionDrop)
	text := RenderText(entries)
	for _, want := range []string{
		"deny udp any eq 123 host 198.51.100.7",
		"fragments",
		"rule ntp01 confidence 0.970",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered ACL missing %q:\n%s", want, text)
		}
	}
	// Monitoring entries render as permit.
	mon := RenderText(ForRules([]tagging.Rule{ntpRule(tagging.StatusAccept)}, ActionMonitor))
	if !strings.Contains(mon, "permit udp any eq 123 any") {
		t.Errorf("monitor ACL:\n%s", mon)
	}
}
