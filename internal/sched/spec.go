// Package sched is the online multi-tenant scheduler service: a long-running
// deterministic state machine that admits a stream of jobs onto the shared
// platform, tracks the free capacity of every fabric domain as jobs bind and
// release core slots, honors required/preferred topology constraints with
// graceful fallback to a wider domain (the KAI-scheduler constraint model),
// and delegates intra-domain layout to the paper's placement engine
// restricted to the domain's free slots (placement.AssignFreeSlots).
//
// Everything below the CLI is deterministic: streams are seeded, event ties
// break on job sequence numbers, and all state iterates in sorted order, so
// identical inputs give bit-identical schedules.
package sched

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/comm"
)

// Tier names a fabric-domain granularity in job constraints, narrowest
// first: "node" (one cluster node), "rack", "pod", "machine" (the whole
// platform). The empty tier means unconstrained.
var tierWidth = map[string]int{"node": 0, "rack": 1, "pod": 2, "machine": 3}

// JobSpec describes one job of a workload: its task graph (a communication
// pattern over Tasks tasks), its compute demand, its arrival time, and its
// optional topology constraints.
type JobSpec struct {
	// Name identifies the job in reports; no whitespace.
	Name string
	// ArriveCycles is the arrival time on the simulated clock.
	ArriveCycles float64
	// WorkCycles is the pure compute demand; communication cost is added
	// on top from the priced task graph.
	WorkCycles float64
	// Tasks is the number of tasks; each occupies one core slot.
	Tasks int
	// Pattern names the task graph: "ring", "stencil:WxH" (optionally
	// "stencil:WxH@SEED" with seed-scrambled task numbering), or
	// "random:DEG@SEED". Empty means "ring".
	Pattern string
	// VolumeBytes is the data volume per task-graph edge.
	VolumeBytes float64
	// Priority is the job's preemption class (0 = lowest, the default).
	// Under the preemption policy a required-constrained arrival may
	// checkpoint-and-requeue running jobs of strictly lower priority when
	// that is the only way to open its domain.
	Priority int
	// Required is the hard placement boundary: the job must fit entirely
	// inside one domain of this tier or it cannot run. Empty = whole
	// machine.
	Required string
	// Preferred is the desired granularity: placement starts at this tier
	// and falls back to wider tiers (up to Required) when it is full.
	// Empty = narrowest tier.
	Preferred string
}

// Validate checks the spec independent of any platform.
func (s JobSpec) Validate() error {
	if s.Name == "" || strings.ContainsAny(s.Name, " \t\n\r") {
		return fmt.Errorf("sched: job name %q empty or contains whitespace", s.Name)
	}
	if math.IsNaN(s.ArriveCycles) || math.IsInf(s.ArriveCycles, 0) || s.ArriveCycles < 0 {
		return fmt.Errorf("sched: job %s: arrive %v out of range", s.Name, s.ArriveCycles)
	}
	if math.IsNaN(s.WorkCycles) || math.IsInf(s.WorkCycles, 0) || s.WorkCycles < 0 {
		return fmt.Errorf("sched: job %s: work %v out of range", s.Name, s.WorkCycles)
	}
	if s.Tasks < 1 || s.Tasks > 1<<20 {
		return fmt.Errorf("sched: job %s: tasks %d out of range [1,%d]", s.Name, s.Tasks, 1<<20)
	}
	if math.IsNaN(s.VolumeBytes) || math.IsInf(s.VolumeBytes, 0) || s.VolumeBytes < 0 {
		return fmt.Errorf("sched: job %s: vol %v out of range", s.Name, s.VolumeBytes)
	}
	if s.Priority < 0 || s.Priority > 100 {
		return fmt.Errorf("sched: job %s: prio %d out of range [0,100]", s.Name, s.Priority)
	}
	if _, _, _, err := parsePattern(s.Pattern, s.Tasks); err != nil {
		return fmt.Errorf("sched: job %s: %w", s.Name, err)
	}
	for _, tier := range []string{s.Required, s.Preferred} {
		if tier == "" {
			continue
		}
		if _, ok := tierWidth[tier]; !ok {
			return fmt.Errorf("sched: job %s: unknown tier %q", s.Name, tier)
		}
	}
	if s.Required != "" && s.Preferred != "" && tierWidth[s.Preferred] > tierWidth[s.Required] {
		return fmt.Errorf("sched: job %s: preferred tier %q wider than required %q", s.Name, s.Preferred, s.Required)
	}
	return nil
}

// parsePattern splits a pattern string into its kind and parameters,
// validating against the task count. Returns (kind, a, b): stencil returns
// its grid dims, random its degree and seed.
func parsePattern(pattern string, tasks int) (kind string, a, b int64, err error) {
	if pattern == "" || pattern == "ring" {
		return "ring", 0, 0, nil
	}
	switch {
	case strings.HasPrefix(pattern, "stencil:"):
		spec := strings.TrimPrefix(pattern, "stencil:")
		scrambled := false
		if at := strings.IndexByte(spec, '@'); at >= 0 {
			seed, err := strconv.ParseInt(spec[at+1:], 10, 64)
			if err != nil || seed < 0 {
				return "", 0, 0, fmt.Errorf("bad stencil seed in %q", pattern)
			}
			spec, scrambled = spec[:at], true
		}
		x := strings.IndexByte(spec, 'x')
		if x < 0 {
			return "", 0, 0, fmt.Errorf("stencil pattern %q wants WxH", pattern)
		}
		w, errW := strconv.ParseInt(spec[:x], 10, 32)
		h, errH := strconv.ParseInt(spec[x+1:], 10, 32)
		if errW != nil || errH != nil || w < 1 || h < 1 {
			return "", 0, 0, fmt.Errorf("bad stencil dims in %q", pattern)
		}
		if int(w*h) != tasks {
			return "", 0, 0, fmt.Errorf("stencil %dx%d has %d blocks, job has %d tasks", w, h, w*h, tasks)
		}
		if scrambled {
			return "stencil@", w, h, nil
		}
		return "stencil", w, h, nil
	case strings.HasPrefix(pattern, "random:"):
		spec := strings.TrimPrefix(pattern, "random:")
		at := strings.IndexByte(spec, '@')
		if at < 0 {
			return "", 0, 0, fmt.Errorf("random pattern %q wants DEG@SEED", pattern)
		}
		deg, errD := strconv.ParseInt(spec[:at], 10, 32)
		seed, errS := strconv.ParseInt(spec[at+1:], 10, 64)
		if errD != nil || errS != nil || deg < 1 || deg > int64(tasks) || seed < 0 {
			return "", 0, 0, fmt.Errorf("bad random pattern %q", pattern)
		}
		return "random", deg, seed, nil
	}
	return "", 0, 0, fmt.Errorf("unknown pattern %q", pattern)
}

// Matrix builds the job's sparse communication matrix from its pattern.
func (s JobSpec) Matrix() (*comm.Matrix, error) { return s.matrix(nil) }

// matrix is Matrix with a generator to re-seed for a scrambled stencil's
// numbering, so a caller building many matrices allocates one source, not
// one per job; nil allocates a fresh one. Seeding resets the whole source
// state, so the numbering is the same either way.
func (s JobSpec) matrix(rng *rand.Rand) (*comm.Matrix, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	kind, a, b, _ := parsePattern(s.Pattern, s.Tasks) // Validate parsed it
	switch kind {
	case "ring":
		return comm.Ring(s.Tasks, s.VolumeBytes), nil
	case "stencil":
		return comm.Stencil2DSparse(int(a), int(b), s.VolumeBytes, s.VolumeBytes/8), nil
	case "stencil@":
		_, scramble, _ := strings.Cut(s.Pattern, "@")
		if seed, _ := strconv.ParseInt(scramble, 10, 64); rng == nil {
			rng = rand.New(rand.NewSource(seed))
		} else {
			rng.Seed(seed)
		}
		return scrambledStencil(int(a), int(b), s.VolumeBytes, rng), nil
	case "random":
		return comm.RandomSparse(s.Tasks, int(a), s.VolumeBytes, b), nil
	}
	return nil, fmt.Errorf("sched: unknown pattern kind %q", kind)
}

// scrambledStencil is a 2D stencil whose task numbering is a seeded random
// permutation of the grid: neighbors in the grid are far apart in index, so
// slot-order placement scatters the heavy edges while affinity-aware
// placement recovers the grid. This is the workload that separates the
// topology-aware scheduler arm from the slot-order arms. rng comes seeded.
func scrambledStencil(w, h int, vol float64, rng *rand.Rand) *comm.Matrix {
	perm := rng.Perm(w * h)
	m := comm.New(w * h)
	id := func(x, y int) int { return perm[y*w+x] }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				m.AddSym(id(x, y), id(x+1, y), vol)
			}
			if y+1 < h {
				m.AddSym(id(x, y), id(x, y+1), vol)
			}
		}
	}
	return m
}

// Render emits the canonical one-line form of the spec. Optional fields at
// their zero value are omitted; ParseJobSpec(Render(s)) reproduces the
// normalized spec, and Render∘Parse is a fixed point (the fuzzer's
// round-trip property).
func (s JobSpec) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "job %s arrive=%g work=%g tasks=%d", s.Name, s.ArriveCycles, s.WorkCycles, s.Tasks)
	if s.Pattern != "" && s.Pattern != "ring" {
		fmt.Fprintf(&b, " pattern=%s", s.Pattern)
	}
	if s.VolumeBytes != 0 {
		fmt.Fprintf(&b, " vol=%g", s.VolumeBytes)
	}
	if s.Priority != 0 {
		fmt.Fprintf(&b, " prio=%d", s.Priority)
	}
	if s.Required != "" {
		fmt.Fprintf(&b, " required=%s", s.Required)
	}
	if s.Preferred != "" {
		fmt.Fprintf(&b, " preferred=%s", s.Preferred)
	}
	return b.String()
}

// ParseJobSpec parses one canonical job line, e.g.
//
//	job j03 arrive=1.5e6 work=2e6 tasks=12 pattern=stencil:4x3@7 vol=65536 required=rack preferred=node
func ParseJobSpec(line string) (JobSpec, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || fields[0] != "job" {
		return JobSpec{}, fmt.Errorf("sched: job line must start with \"job <name>\": %q", line)
	}
	s := JobSpec{Name: fields[1]}
	seen := map[string]bool{}
	for _, f := range fields[2:] {
		eq := strings.IndexByte(f, '=')
		if eq <= 0 {
			return JobSpec{}, fmt.Errorf("sched: bad field %q (want key=value)", f)
		}
		key, val := f[:eq], f[eq+1:]
		if seen[key] {
			return JobSpec{}, fmt.Errorf("sched: duplicate field %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "arrive":
			s.ArriveCycles, err = parseFinite(val)
		case "work":
			s.WorkCycles, err = parseFinite(val)
		case "tasks":
			s.Tasks, err = strconv.Atoi(val)
		case "vol":
			s.VolumeBytes, err = parseFinite(val)
		case "prio":
			s.Priority, err = strconv.Atoi(val)
		case "pattern":
			s.Pattern = val
			if s.Pattern == "ring" {
				s.Pattern = "" // canonical zero value
			}
		case "required":
			s.Required = val
		case "preferred":
			s.Preferred = val
		default:
			return JobSpec{}, fmt.Errorf("sched: unknown field %q", key)
		}
		if err != nil {
			return JobSpec{}, fmt.Errorf("sched: bad %s value %q: %v", key, val, err)
		}
	}
	if err := s.Validate(); err != nil {
		return JobSpec{}, err
	}
	return s, nil
}

func parseFinite(val string) (float64, error) {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("not finite")
	}
	return v, nil
}

// ParseWorkload reads a workload file: one job line each, blank lines and
// '#' comments skipped.
func ParseWorkload(r io.Reader) ([]JobSpec, error) {
	var jobs []JobSpec
	names := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := ParseJobSpec(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if names[s.Name] {
			return nil, fmt.Errorf("line %d: duplicate job name %q", lineNo, s.Name)
		}
		names[s.Name] = true
		jobs = append(jobs, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return jobs, nil
}
