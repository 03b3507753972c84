package tagging

import (
	"sort"

	"github.com/ixp-scrubber/ixpscrubber/internal/par"
)

// Itemset is a frequent itemset with its occurrence counts: Count over all
// transactions and BHCount over blackholed transactions only. Carrying both
// counts through the mining lets rule generation compute the confidence of
// the {blackhole} consequent without a second pass.
type Itemset struct {
	Items   []Item
	Count   int
	BHCount int
}

// fpNode is one node of the FP-tree.
type fpNode struct {
	item     Item
	count    int
	bhCount  int
	parent   *fpNode
	children map[Item]*fpNode
	next     *fpNode // header table chain
}

type headerEntry struct {
	item  Item
	count int
	head  *fpNode
}

type fpTree struct {
	root    *fpNode
	headers []headerEntry // ascending by count
	index   map[Item]int  // item -> headers position
}

func newFPTree() *fpTree {
	return &fpTree{
		root:  &fpNode{children: make(map[Item]*fpNode)},
		index: make(map[Item]int),
	}
}

// insert adds one transaction (already filtered to frequent items, ordered
// by descending global frequency) with the given weights.
func (t *fpTree) insert(items []Item, count, bhCount int) {
	node := t.root
	for _, it := range items {
		child := node.children[it]
		if child == nil {
			child = &fpNode{item: it, parent: node, children: make(map[Item]*fpNode)}
			node.children[it] = child
			hi := t.index[it]
			child.next = t.headers[hi].head
			t.headers[hi].head = child
		}
		child.count += count
		child.bhCount += bhCount
		node = child
	}
}

// Transaction pairs an itemization with its label, weighted: it stands for
// Count identical records.
type Transaction struct {
	Items      []Item
	Blackholed bool
	Count      int
}

// MineFrequentWorkers runs FP-Growth over the weighted transactions and
// returns every itemset whose support count — the summed Count of the transactions
// containing it — is at least minCount, with blackhole co-occurrence
// counts. Itemsets, counts and emission order depend only on the multiset
// of records the transactions stand for, so callers pre-aggregate
// identical records into one weighted transaction (Mine does, per Class and
// label); repeated transactions are handled correctly too. The conditional
// trees of the top-level header-table items are mined concurrently and their itemsets concatenated in header order, which
// reproduces the serial DFS emission order exactly — output is bit-for-bit
// identical for every worker count. workers <= 0 sizes from GOMAXPROCS;
// workers == 1 is the serial path.
func MineFrequentWorkers(txs []Transaction, minCount, workers int) []Itemset {
	if minCount < 1 {
		minCount = 1
	}
	// Global item frequencies.
	freq := make(map[Item]int)
	for i := range txs {
		for _, it := range txs[i].Items {
			freq[it] += txs[i].Count
		}
	}
	tree := buildTree(txs, freq, minCount)
	w := par.Workers(workers)
	if w <= 1 || len(tree.headers) <= 1 {
		var out []Itemset
		mine(tree, nil, minCount, &out)
		return out
	}
	// The built tree is read-only during mining: workers only walk parent
	// and header chains and grow private conditional trees. Each header
	// item's subtree lands in its own slot; the ordered concatenation below
	// is the stable merge.
	outs := make([][]Itemset, len(tree.headers))
	par.For(w, len(tree.headers), func(hi int) {
		var out []Itemset
		mineHeader(tree, hi, nil, minCount, &out)
		outs[hi] = out
	})
	var out []Itemset
	for _, o := range outs {
		out = append(out, o...)
	}
	return out
}

func buildTree(txs []Transaction, freq map[Item]int, minCount int) *fpTree {
	t := newFPTree()
	for it, c := range freq {
		if c >= minCount {
			t.headers = append(t.headers, headerEntry{item: it, count: c})
		}
	}
	// Ascending count order (mining iterates least-frequent first); the
	// per-transaction ordering below is the reverse (most frequent first).
	sort.Slice(t.headers, func(i, j int) bool {
		if t.headers[i].count != t.headers[j].count {
			return t.headers[i].count < t.headers[j].count
		}
		return t.headers[i].item < t.headers[j].item
	})
	for i := range t.headers {
		t.index[t.headers[i].item] = i
	}
	// Deduplicate identical (filtered, ordered) transactions so each
	// distinct path is inserted once with its summed weight: transactions
	// that differ only in infrequent items or in their label share a path.
	type weight struct{ count, bhCount int }
	dedup := make(map[string]*weight)
	order := make([]string, 0, 1024)
	itemsOf := make(map[string][]Item)
	var buf []Item
	keyBuf := make([]byte, 0, 64)
	for i := range txs {
		buf = buf[:0]
		for _, it := range txs[i].Items {
			if _, ok := t.index[it]; ok {
				buf = append(buf, it)
			}
		}
		// Most-frequent-first path ordering maximizes prefix sharing.
		sort.Slice(buf, func(a, b int) bool { return t.index[buf[a]] > t.index[buf[b]] })
		keyBuf = keyBuf[:0]
		for _, it := range buf {
			keyBuf = append(keyBuf, byte(it>>24), byte(it>>16), byte(it>>8), byte(it))
		}
		k := string(keyBuf)
		w := dedup[k]
		if w == nil {
			w = &weight{}
			dedup[k] = w
			order = append(order, k)
			itemsOf[k] = append([]Item(nil), buf...)
		}
		w.count += txs[i].Count
		if txs[i].Blackholed {
			w.bhCount += txs[i].Count
		}
	}
	for _, k := range order {
		w := dedup[k]
		t.insert(itemsOf[k], w.count, w.bhCount)
	}
	return t
}

// mine emits all frequent itemsets of tree suffixed with suffix, serially,
// in DFS order over the header table.
func mine(t *fpTree, suffix []Item, minCount int, out *[]Itemset) {
	for hi := range t.headers {
		mineHeader(t, hi, suffix, minCount, out)
	}
}

// mineHeader emits the frequent itemsets rooted at header item hi: the
// itemset of the item itself followed by every itemset of its conditional
// tree. It never mutates t, so distinct header items mine concurrently.
func mineHeader(t *fpTree, hi int, suffix []Item, minCount int, out *[]Itemset) {
	h := &t.headers[hi]
	// Total support of item within this conditional tree.
	total, totalBH := 0, 0
	for n := h.head; n != nil; n = n.next {
		total += n.count
		totalBH += n.bhCount
	}
	if total < minCount {
		return
	}
	itemset := make([]Item, 0, len(suffix)+1)
	itemset = append(itemset, h.item)
	itemset = append(itemset, suffix...)
	*out = append(*out, Itemset{Items: sortedCopy(itemset), Count: total, BHCount: totalBH})

	// Conditional pattern base for this item.
	condFreq := make(map[Item]int)
	type path struct {
		items   []Item
		count   int
		bhCount int
	}
	var paths []path
	for n := h.head; n != nil; n = n.next {
		var items []Item
		for p := n.parent; p != nil && p.parent != nil; p = p.parent {
			items = append(items, p.item)
		}
		if len(items) == 0 {
			continue
		}
		paths = append(paths, path{items: items, count: n.count, bhCount: n.bhCount})
		for _, it := range items {
			condFreq[it] += n.count
		}
	}
	if len(paths) == 0 {
		return
	}
	cond := newFPTree()
	for it, c := range condFreq {
		if c >= minCount {
			cond.headers = append(cond.headers, headerEntry{item: it, count: c})
		}
	}
	if len(cond.headers) == 0 {
		return
	}
	sort.Slice(cond.headers, func(i, j int) bool {
		if cond.headers[i].count != cond.headers[j].count {
			return cond.headers[i].count < cond.headers[j].count
		}
		return cond.headers[i].item < cond.headers[j].item
	})
	for i := range cond.headers {
		cond.index[cond.headers[i].item] = i
	}
	for _, p := range paths {
		kept := p.items[:0]
		for _, it := range p.items {
			if _, ok := cond.index[it]; ok {
				kept = append(kept, it)
			}
		}
		sort.Slice(kept, func(a, b int) bool { return cond.index[kept[a]] > cond.index[kept[b]] })
		cond.insert(kept, p.count, p.bhCount)
	}
	mine(cond, itemset, minCount, out)
}

func sortedCopy(items []Item) []Item {
	out := append([]Item(nil), items...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
