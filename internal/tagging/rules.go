package tagging

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"github.com/ixp-scrubber/ixpscrubber/internal/netflow"
)

// Status is the curation state a network operator assigns to a rule in the
// review UI (Fig. 6).
type Status string

// Curation states.
const (
	StatusStaging Status = "staging" // mined, awaiting review
	StatusAccept  Status = "accept"  // confirmed: tag/filter traffic
	StatusDecline Status = "decline" // rejected: never shown again
)

// Rule is one tagging rule: an antecedent of header items implying the
// {blackhole} consequent.
type Rule struct {
	// ID is a stable short hash of the antecedent.
	ID string
	// Antecedent is the sorted item set.
	Antecedent []Item
	// Confidence is P(blackhole | antecedent).
	Confidence float64
	// Support is the antecedent's share of all transactions.
	Support float64
	// Status is the curation state.
	Status Status
	// Notes carries operator documentation.
	Notes string
}

// String renders the rule in A -> {blackhole} form.
func (r *Rule) String() string {
	return fmt.Sprintf("%s -> {blackhole} (c=%.3f, s=%.5f, %s)",
		ItemsString(r.Antecedent), r.Confidence, r.Support, r.Status)
}

// Match reports whether the rule's antecedent matches the record.
func (r *Rule) Match(rec *netflow.Record) bool { return MatchRecord(r.Antecedent, rec) }

// ruleID derives the stable ID from the antecedent.
func ruleID(items []Item) string {
	h := sha256.New()
	for _, it := range items {
		h.Write([]byte{byte(it >> 24), byte(it >> 16), byte(it >> 8), byte(it)})
	}
	return hex.EncodeToString(h.Sum(nil))[:8]
}

// MineOptions parameterizes rule mining.
type MineOptions struct {
	// MinConfidence is the FP-Growth rule confidence floor (paper: 0.8).
	MinConfidence float64
	// MinSupportCount is the absolute itemset support floor.
	MinSupportCount int
	// LossConfidence/LossSupport are the Lc/Ls thresholds of Algorithm 1
	// (paper: 0.01 after the Appendix A sensitivity study).
	LossConfidence float64
	LossSupport    float64
	// Workers bounds the FP-Growth worker pool: 0 sizes from GOMAXPROCS,
	// 1 forces the serial path. Mined rules are identical at every value.
	Workers int
}

// DefaultMineOptions returns the paper's operating point.
func DefaultMineOptions() MineOptions {
	return MineOptions{
		MinConfidence:   0.8,
		MinSupportCount: 20,
		LossConfidence:  0.01,
		LossSupport:     0.01,
	}
}

// MiningReport describes the rule funnel of §5.1.1: all mined association
// rules, the subset whose consequent is {blackhole}, and the set remaining
// after Algorithm 1.
type MiningReport struct {
	Transactions        int
	FrequentItemsets    int
	RulesAllConsequents int
	RulesBlackhole      int
	RulesMinimized      int
}

// Mine runs the full Step 1 pipeline over a balanced record set: itemize,
// mine frequent itemsets, generate rules, filter to the {blackhole}
// consequent, and minimize with Algorithm 1. Returned rules are in staging
// and sorted by descending support.
func Mine(records []netflow.Record, opts MineOptions) ([]Rule, MiningReport) {
	return MineTransactions(weightedTransactions(records), opts)
}

// weightedTransactions itemizes records as one transaction per distinct
// (Class, label) pair, in first-seen order, weighted by its record count.
// FP-Growth's itemsets, counts and emission order depend only on the
// multiset of transactions, so mining these is mining one transaction per
// record — at the cost of the few thousand distinct header classes a window
// holds rather than its tens of thousands of records.
func weightedTransactions(records []netflow.Record) []Transaction {
	var (
		txs     []Transaction
		classes []Class
		index   = make(map[uint64]int)
	)
	for i := range records {
		r := &records[i]
		c := ClassOf(r)
		key := uint64(c) << 1
		if r.Blackholed {
			key |= 1
		}
		j, ok := index[key]
		if !ok {
			j = len(txs)
			index[key] = j
			txs = append(txs, Transaction{Blackholed: r.Blackholed})
			classes = append(classes, c)
		}
		txs[j].Count++
	}
	// One backing array for every transaction's items: a class has at most
	// four, so it never reallocates under the sub-slices.
	items := make([]Item, 0, 4*len(txs))
	for j, c := range classes {
		start := len(items)
		items = c.Items(items)
		txs[j].Items = items[start:len(items):len(items)]
	}
	return txs
}

// MineTransactions is Mine for pre-itemized, weighted transactions.
// Transactions and supports count records: the sum of the weights.
func MineTransactions(txs []Transaction, opts MineOptions) ([]Rule, MiningReport) {
	var rep MiningReport
	for i := range txs {
		rep.Transactions += txs[i].Count
	}
	if rep.Transactions == 0 {
		return nil, rep
	}
	itemsets := MineFrequentWorkers(txs, opts.MinSupportCount, opts.Workers)
	rep.FrequentItemsets = len(itemsets)

	// Index itemsets for consequent enumeration.
	bySig := make(map[string]*Itemset, len(itemsets))
	sig := func(items []Item) string {
		b := make([]byte, 0, len(items)*4)
		for _, it := range items {
			b = append(b, byte(it>>24), byte(it>>16), byte(it>>8), byte(it))
		}
		return string(b)
	}
	for i := range itemsets {
		bySig[sig(itemsets[i].Items)] = &itemsets[i]
	}

	n := float64(rep.Transactions)
	var rules []Rule
	for i := range itemsets {
		s := &itemsets[i]
		// Rule with the {blackhole} consequent.
		conf := float64(s.BHCount) / float64(s.Count)
		if conf >= opts.MinConfidence {
			rep.RulesBlackhole++
			rules = append(rules, Rule{
				ID:         ruleID(s.Items),
				Antecedent: s.Items,
				Confidence: conf,
				Support:    float64(s.Count) / n,
				Status:     StatusStaging,
			})
		}
		// Rules with single-item header consequents (counted for the §5.1.1
		// funnel, then discarded by the consequent filter).
		if len(s.Items) >= 2 {
			ante := make([]Item, 0, len(s.Items)-1)
			for j := range s.Items {
				ante = ante[:0]
				ante = append(ante, s.Items[:j]...)
				ante = append(ante, s.Items[j+1:]...)
				a, ok := bySig[sig(ante)]
				if !ok {
					continue
				}
				if float64(s.Count)/float64(a.Count) >= opts.MinConfidence {
					rep.RulesAllConsequents++
				}
			}
		}
	}
	rep.RulesAllConsequents += rep.RulesBlackhole

	rules = MinimizeRules(rules, opts.LossConfidence, opts.LossSupport)
	rep.RulesMinimized = len(rules)
	sort.Slice(rules, func(i, j int) bool {
		if rules[i].Support != rules[j].Support {
			return rules[i].Support > rules[j].Support
		}
		return rules[i].ID < rules[j].ID
	})
	return rules, rep
}

// MinimizeRules implements Algorithm 1: repeatedly drop a rule whose
// antecedent is a proper subset of another rule's antecedent when the loss
// in confidence and support stays below Lc/Ls, until a fixpoint.
func MinimizeRules(rules []Rule, lc, ls float64) []Rule {
	out := append([]Rule(nil), rules...)
	for {
		deleted := make([]bool, len(out))
		any := false
		for i := range out {
			if deleted[i] {
				continue
			}
			for j := range out {
				if i == j || deleted[j] {
					continue
				}
				if !isProperSubset(out[i].Antecedent, out[j].Antecedent) {
					continue
				}
				if out[i].Confidence-out[j].Confidence < lc && out[i].Support-out[j].Support < ls {
					deleted[i] = true
					any = true
					break
				}
			}
		}
		if !any {
			return out
		}
		kept := out[:0]
		for i := range out {
			if !deleted[i] {
				kept = append(kept, out[i])
			}
		}
		out = kept
	}
}

// isProperSubset reports a ⊂ b for sorted item slices.
func isProperSubset(a, b []Item) bool {
	if len(a) >= len(b) {
		return false
	}
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}

// RuleSet is a curated collection of rules with stable identity, supporting
// the grow-over-time workflow: freshly mined rules merge in as staging,
// declined rules never reappear.
type RuleSet struct {
	rules map[string]*Rule
}

// NewRuleSet builds a set from initial rules.
func NewRuleSet(rules []Rule) *RuleSet {
	s := &RuleSet{rules: make(map[string]*Rule, len(rules))}
	for i := range rules {
		r := rules[i]
		s.rules[r.ID] = &r
	}
	return s
}

// Merge folds freshly mined rules in: unknown rules enter as staging; known
// rules refresh confidence/support but keep their curation state.
func (s *RuleSet) Merge(mined []Rule) (added int) {
	for i := range mined {
		m := mined[i]
		if ex, ok := s.rules[m.ID]; ok {
			ex.Confidence = m.Confidence
			ex.Support = m.Support
			continue
		}
		m.Status = StatusStaging
		s.rules[m.ID] = &m
		added++
	}
	return added
}

// SetStatus curates one rule.
func (s *RuleSet) SetStatus(id string, st Status, notes string) error {
	r, ok := s.rules[id]
	if !ok {
		return fmt.Errorf("tagging: unknown rule %q", id)
	}
	r.Status = st
	if notes != "" {
		r.Notes = notes
	}
	return nil
}

// Rules returns all rules sorted by descending support.
func (s *RuleSet) Rules() []Rule {
	out := make([]Rule, 0, len(s.rules))
	for _, r := range s.rules {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Accepted returns the accepted rules only — the set used for tagging and
// ACL generation.
func (s *RuleSet) Accepted() []Rule {
	var out []Rule
	for _, r := range s.Rules() {
		if r.Status == StatusAccept {
			out = append(out, r)
		}
	}
	return out
}

// AcceptAll accepts every staging rule; used by the scripted operator
// policy when thresholds have pre-filtered rules.
func (s *RuleSet) AcceptAll() {
	for _, r := range s.rules {
		if r.Status == StatusStaging {
			r.Status = StatusAccept
		}
	}
}

// AcceptPolicy is a scripted stand-in for the operator review of §5.1.2/
// §5.1.3: it encodes the judgments a network engineer applies in the rule
// UI. Rules failing the policy are declined.
type AcceptPolicy struct {
	// MinConfidence is the acceptance floor; the released DE-CIX rule list
	// ships rules with confidence > 0.9.
	MinConfidence float64
	// RequireAnchor declines rules without a concrete traffic anchor: a
	// literal (non-sprayed) source service port, the fragment flag, or a
	// non-TCP/UDP protocol. An unanchored rule like {protocol=UDP} would
	// drop a quarter of the Internet — exactly what an operator declines
	// on sight.
	RequireAnchor bool
}

// DefaultAcceptPolicy mirrors the released rule list's operating point.
func DefaultAcceptPolicy() AcceptPolicy {
	return AcceptPolicy{MinConfidence: 0.9, RequireAnchor: true}
}

// Anchored reports whether the rule has a concrete traffic anchor per the
// policy's definition.
func Anchored(r *Rule) bool {
	for _, it := range r.Antecedent {
		switch it.Field() {
		case FieldSrcPort:
			if it.Value() != PortOther {
				return true
			}
		case FieldFragment:
			return true
		case FieldProtocol:
			if v := it.Value(); v != 6 && v != 17 {
				return true // exotic protocol (GRE, ESP, ...) is a signature
			}
		}
	}
	return false
}

// Apply curates all staged rules: accept those passing the policy, decline
// the rest. Returns (accepted, declined) counts.
func (s *RuleSet) Apply(p AcceptPolicy) (accepted, declined int) {
	for _, r := range s.rules {
		if r.Status != StatusStaging {
			continue
		}
		if r.Confidence >= p.MinConfidence && (!p.RequireAnchor || Anchored(r)) {
			r.Status = StatusAccept
			accepted++
		} else {
			r.Status = StatusDecline
			declined++
		}
	}
	return accepted, declined
}

// Len returns the number of rules including declined ones.
func (s *RuleSet) Len() int { return len(s.rules) }
