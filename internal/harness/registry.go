package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"klsm/internal/pqs"
	"klsm/internal/pqs/heaplock"
	"klsm/internal/pqs/klsmq"
	"klsm/internal/pqs/linden"
	"klsm/internal/pqs/multiq"
	"klsm/internal/pqs/spraylist"
	"klsm/internal/pqs/wimmer"
	"klsm/internal/sssp"
)

// QueueSpec names one benchmarked configuration and builds fresh instances.
// The names match the paper's Figure 3/4 legends.
type QueueSpec struct {
	Name string
	// New builds a queue sized for the given thread count.
	New func(threads int) pqs.Queue
	// NewSSSP builds the queue for the SSSP benchmark (with the lazy-
	// deletion hook where supported).
	NewSSSP sssp.QueueFactory
}

// Figure3Specs returns the queue line-up of the throughput benchmark
// (Figure 3): Heap+Lock, Lindén & Jonsson, SprayList, MultiQueue, k-LSM
// with k ∈ {0,4,256,4096}, and the DLSM.
func Figure3Specs() []QueueSpec {
	specs := []QueueSpec{
		{Name: "HeapLock", New: func(int) pqs.Queue { return heaplock.New() }},
		{Name: "Linden", New: func(int) pqs.Queue { return linden.New(0) }},
		{Name: "SprayList", New: func(t int) pqs.Queue { return spraylist.New(spraylist.Config{Threads: t}) }},
		{Name: "MultiQ", New: func(t int) pqs.Queue { return multiq.New(multiq.Config{C: 2, Threads: t, Arity: 8}) }},
	}
	for _, k := range []int{0, 4, 256, 4096} {
		k := k
		specs = append(specs, QueueSpec{
			Name: fmt.Sprintf("kLSM(%d)", k),
			New:  func(int) pqs.Queue { return klsmq.New(k) },
		})
	}
	specs = append(specs, QueueSpec{Name: "DLSM", New: func(int) pqs.Queue { return klsmq.NewDLSM() }})
	return specs
}

// Figure4Specs returns the SSSP line-up (Figure 4): the Wimmer et al.
// centralized and hybrid k-PQs and the k-LSM, each parameterized by k.
func Figure4Specs(k int) []QueueSpec {
	return []QueueSpec{
		{
			Name:    "Centralized-k",
			NewSSSP: func(workers int, drop func(uint64) bool) pqs.Queue { return wimmer.NewCentralized(k) },
		},
		{
			Name:    "Hybrid-k",
			NewSSSP: func(workers int, drop func(uint64) bool) pqs.Queue { return wimmer.NewHybrid(k) },
		},
		{
			Name:    "kLSM",
			NewSSSP: func(workers int, drop func(uint64) bool) pqs.Queue { return klsmq.NewWithDrop(k, drop) },
		},
	}
}

// ExtraSpecs returns ablation configurations that are selectable by name in
// the throughput tool but are not part of the paper's Figure 3 legend (so
// "all" and the figure benchmarks stay faithful to the paper).
func ExtraSpecs() []QueueSpec {
	var specs []QueueSpec
	// Deletion-buffer and sticky-hint ablations (E15/E16) plus the large-k
	// frontier points of the window sweep, at every k the sweep visits.
	for _, k := range []int{256, 4096, 8192, 65536} {
		k := k
		specs = append(specs,
			QueueSpec{Name: fmt.Sprintf("kLSM(%d)-nobuf", k), New: func(int) pqs.Queue { return klsmq.NewNoDelBuf(k) }},
			QueueSpec{Name: fmt.Sprintf("kLSM(%d)-nosticky", k), New: func(int) pqs.Queue { return klsmq.NewNoSticky(k) }},
		)
	}
	for _, k := range []int{8192, 65536} {
		k := k
		specs = append(specs, QueueSpec{
			Name: fmt.Sprintf("kLSM(%d)", k),
			New:  func(int) pqs.Queue { return klsmq.New(k) },
		})
	}
	return specs
}

// LookupFigure3 returns the named specs (comma-separated list, "all" for
// everything in the Figure 3 legend; the ExtraSpecs ablations resolve by
// name only). Unknown names return an error listing the choices.
func LookupFigure3(names string) ([]QueueSpec, error) {
	all := Figure3Specs()
	if names == "" || names == "all" {
		return all, nil
	}
	byName := map[string]QueueSpec{}
	var known []string
	for _, s := range append(all, ExtraSpecs()...) {
		byName[strings.ToLower(s.Name)] = s
		known = append(known, s.Name)
	}
	var out []QueueSpec
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		s, ok := byName[strings.ToLower(n)]
		if !ok {
			sort.Strings(known)
			return nil, fmt.Errorf("unknown queue %q (choices: %s, all)", n, strings.Join(known, ", "))
		}
		out = append(out, s)
	}
	return out, nil
}

// ParseIntList parses "1,2,3" into ints.
func ParseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q: %v", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list %q", s)
	}
	return out, nil
}
