// Package ga implements the genetic-algorithm scheduling family the
// paper's Related Work surveys (Section II, refs [12]–[17]): an intensive
// stochastic search that trades run time for schedule quality, against
// which list schedulers like HDLTS position their low-cost results.
//
// The design is the standard two-part chromosome of the workflow-GA
// literature:
//
//   - a scheduling list: a precedence-compatible permutation of the tasks;
//   - a mapping: one processor per task.
//
// Decoding places tasks in list order on their mapped processors with
// insertion-based timing; fitness is the makespan. The search uses
// tournament selection, precedence-preserving order crossover, uniform
// mapping crossover, order and mapping mutations, and elitism. One
// individual of the initial population is seeded from HEFT's schedule, the
// common warm-start in this literature.
package ga

import (
	"fmt"
	"math/rand"
	"sort"

	"hdlts/internal/dag"
	"hdlts/internal/heuristics"
	"hdlts/internal/obs"
	"hdlts/internal/platform"
	"hdlts/internal/sched"
)

// Params tunes the search. Zero values select the defaults noted per field.
type Params struct {
	// Population size (default 40).
	Population int
	// Generations evolved (default 100).
	Generations int
	// CrossoverP is the per-offspring crossover probability (default 0.9).
	CrossoverP float64
	// MutationP is the per-offspring mutation probability (default 0.3).
	MutationP float64
	// Tournament size for selection (default 3).
	Tournament int
	// Elite individuals copied unchanged per generation (default 2).
	Elite int
	// Seed drives all randomness; the search is deterministic per seed.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.Population <= 0 {
		p.Population = 40
	}
	if p.Generations <= 0 {
		p.Generations = 100
	}
	if p.CrossoverP <= 0 {
		p.CrossoverP = 0.9
	}
	if p.MutationP <= 0 {
		p.MutationP = 0.3
	}
	if p.Tournament <= 0 {
		p.Tournament = 3
	}
	if p.Elite <= 0 {
		p.Elite = 2
	}
	if p.Elite >= p.Population {
		p.Elite = p.Population - 1
	}
	return p
}

// GA is the genetic-algorithm scheduler.
type GA struct {
	params Params
}

// New returns a GA scheduler with default parameters.
func New() *GA { return &GA{params: Params{}.withDefaults()} }

// NewWithParams returns a GA scheduler with explicit parameters.
func NewWithParams(p Params) *GA { return &GA{params: p.withDefaults()} }

// Name implements sched.Algorithm.
func (*GA) Name() string { return "GA" }

// individual is one candidate solution.
type individual struct {
	order   []dag.TaskID
	mapping []platform.Proc
	fitness float64 // makespan; lower is better
}

// Schedule implements sched.Algorithm.
func (ga *GA) Schedule(pr *sched.Problem) (*sched.Schedule, error) {
	defer obs.StartSolve(ga.Name()).Stop()
	pr = pr.Normalize()
	p := ga.params
	rng := rand.New(rand.NewSource(p.Seed))

	pop, err := ga.initialPopulation(pr, rng)
	if err != nil {
		return nil, err
	}
	for i := range pop {
		if err := evaluate(pr, &pop[i]); err != nil {
			return nil, err
		}
	}
	sortByFitness(pop)

	for gen := 0; gen < p.Generations; gen++ {
		next := make([]individual, 0, p.Population)
		// Elitism.
		for i := 0; i < p.Elite; i++ {
			next = append(next, clone(pop[i]))
		}
		for len(next) < p.Population {
			a := tournament(pop, p.Tournament, rng)
			b := tournament(pop, p.Tournament, rng)
			child := clone(a)
			if rng.Float64() < p.CrossoverP {
				child = crossover(a, b, rng)
			}
			if rng.Float64() < p.MutationP {
				mutate(pr, &child, rng)
			}
			if err := evaluate(pr, &child); err != nil {
				return nil, err
			}
			next = append(next, child)
		}
		pop = next
		sortByFitness(pop)
	}

	return decode(pr, pop[0])
}

// initialPopulation seeds random precedence-compatible lists with random
// mappings, plus one HEFT-derived individual.
func (ga *GA) initialPopulation(pr *sched.Problem, rng *rand.Rand) ([]individual, error) {
	p := ga.params
	pop := make([]individual, 0, p.Population)

	heftInd, err := heftSeed(pr)
	if err != nil {
		return nil, err
	}
	pop = append(pop, heftInd)
	for len(pop) < p.Population {
		ind := individual{
			order:   randomTopoOrder(pr.G, rng),
			mapping: make([]platform.Proc, pr.NumTasks()),
		}
		for t := range ind.mapping {
			ind.mapping[t] = platform.Proc(rng.Intn(pr.NumProcs()))
		}
		pop = append(pop, ind)
	}
	return pop, nil
}

// heftSeed converts HEFT's schedule into a chromosome.
func heftSeed(pr *sched.Problem) (individual, error) {
	s, err := heuristics.NewHEFT().Schedule(pr)
	if err != nil {
		return individual{}, err
	}
	n := pr.NumTasks()
	ind := individual{order: make([]dag.TaskID, n), mapping: make([]platform.Proc, n)}
	ids := make([]dag.TaskID, n)
	for t := 0; t < n; t++ {
		ids[t] = dag.TaskID(t)
		pl, ok := s.PlacementOf(dag.TaskID(t))
		if !ok {
			return individual{}, fmt.Errorf("ga: HEFT seed incomplete")
		}
		ind.mapping[t] = pl.Proc
	}
	sort.Slice(ids, func(i, j int) bool {
		a, _ := s.PlacementOf(ids[i])
		b, _ := s.PlacementOf(ids[j])
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return ids[i] < ids[j]
	})
	copy(ind.order, ids)
	return ind, nil
}

// randomTopoOrder draws a uniform-ish random topological order by running
// Kahn's algorithm with random ready-set picks.
func randomTopoOrder(g *dag.Graph, rng *rand.Rand) []dag.TaskID {
	n := g.NumTasks()
	indeg := make([]int, n)
	var ready []dag.TaskID
	for t := 0; t < n; t++ {
		indeg[t] = g.InDegree(dag.TaskID(t))
		if indeg[t] == 0 {
			ready = append(ready, dag.TaskID(t))
		}
	}
	order := make([]dag.TaskID, 0, n)
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		t := ready[i]
		ready[i] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		order = append(order, t)
		for _, a := range g.Succs(t) {
			indeg[a.Task]--
			if indeg[a.Task] == 0 {
				ready = append(ready, a.Task)
			}
		}
	}
	return order
}

// decode turns a chromosome into a concrete schedule.
func decode(pr *sched.Problem, ind individual) (*sched.Schedule, error) {
	s := sched.NewSchedule(pr)
	for _, t := range ind.order {
		e, err := s.Estimate(t, ind.mapping[t], sched.InsertionPolicy)
		if err != nil {
			return nil, err
		}
		if err := s.Commit(e); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// evaluate computes and stores the fitness.
func evaluate(pr *sched.Problem, ind *individual) error {
	s, err := decode(pr, *ind)
	if err != nil {
		return err
	}
	ind.fitness = s.Makespan()
	return nil
}

func sortByFitness(pop []individual) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].fitness < pop[j].fitness })
}

func clone(ind individual) individual {
	return individual{
		order:   append([]dag.TaskID(nil), ind.order...),
		mapping: append([]platform.Proc(nil), ind.mapping...),
		fitness: ind.fitness,
	}
}

// tournament returns the fittest of k random individuals.
func tournament(pop []individual, k int, rng *rand.Rand) individual {
	best := rng.Intn(len(pop))
	for i := 1; i < k; i++ {
		if c := rng.Intn(len(pop)); pop[c].fitness < pop[best].fitness {
			best = c
		}
	}
	return pop[best]
}

// crossover combines two parents: the order uses single-point
// precedence-preserving crossover (prefix of a, remainder in b's relative
// order — always a valid topological order when both parents are); the
// mapping uses uniform crossover.
func crossover(a, b individual, rng *rand.Rand) individual {
	n := len(a.order)
	child := individual{order: make([]dag.TaskID, 0, n), mapping: make([]platform.Proc, n)}
	cut := 1 + rng.Intn(n)
	taken := make([]bool, n)
	for _, t := range a.order[:cut] {
		child.order = append(child.order, t)
		taken[t] = true
	}
	for _, t := range b.order {
		if !taken[t] {
			child.order = append(child.order, t)
		}
	}
	for t := 0; t < n; t++ {
		if rng.Intn(2) == 0 {
			child.mapping[t] = a.mapping[t]
		} else {
			child.mapping[t] = b.mapping[t]
		}
	}
	return child
}

// mutate applies one of two mutations: remap a random task to a random
// processor, or move a random task to another feasible position in the
// list (anywhere between its last predecessor and first successor).
func mutate(pr *sched.Problem, ind *individual, rng *rand.Rand) {
	n := len(ind.order)
	if rng.Intn(2) == 0 {
		t := rng.Intn(n)
		ind.mapping[t] = platform.Proc(rng.Intn(pr.NumProcs()))
		return
	}
	// Positional mutation.
	pos := rng.Intn(n)
	t := ind.order[pos]
	g := pr.G
	pred := map[dag.TaskID]bool{}
	succ := map[dag.TaskID]bool{}
	for _, a := range g.Preds(t) {
		pred[a.Task] = true
	}
	for _, a := range g.Succs(t) {
		succ[a.Task] = true
	}
	lo, hi := 0, n-1
	for i := pos - 1; i >= 0; i-- {
		if pred[ind.order[i]] {
			lo = i + 1
			break
		}
	}
	for i := pos + 1; i < n; i++ {
		if succ[ind.order[i]] {
			hi = i - 1
			break
		}
	}
	if hi <= lo {
		return
	}
	to := lo + rng.Intn(hi-lo+1)
	// Remove from pos, insert at to.
	order := append([]dag.TaskID(nil), ind.order...)
	order = append(order[:pos], order[pos+1:]...)
	order = append(order[:to], append([]dag.TaskID{t}, order[to:]...)...)
	ind.order = order
}
