// Package dag implements the directed-acyclic-graph application-workflow
// model used throughout the HDLTS reproduction: tasks (vertices), dependency
// edges annotated with the volume of data transferred between tasks,
// validation, topological ordering, level decomposition, critical paths, and
// normalisation of multi-entry/multi-exit graphs via zero-cost pseudo tasks,
// exactly as described in Section III of the paper.
//
// A Graph is purely structural: per-processor execution times live in a
// platform cost matrix (see package platform) so the same workflow can be
// evaluated against many heterogeneous computing environments.
package dag

import (
	"fmt"
	"slices"
)

// TaskID identifies a task inside one Graph. IDs are dense indices in
// [0, Graph.NumTasks()); they are assigned by AddTask in insertion order.
type TaskID int

// None is the sentinel "no task" value returned by lookups that can fail.
const None TaskID = -1

// Task is a single schedulable unit of an application workflow.
type Task struct {
	// ID is the dense index of the task in its graph.
	ID TaskID
	// Name is an optional human-readable label ("T1", "mProjectPP-3", ...).
	Name string
	// Pseudo marks zero-cost tasks inserted by NormalizeSingleEntryExit to
	// collapse multiple entry or exit tasks into one. Pseudo tasks execute in
	// zero time on every processor and exchange zero data on their edges.
	Pseudo bool
}

// Arc is one directed dependency as seen from an endpoint.
type Arc struct {
	// Task is the neighbouring task (the successor when the arc is read from
	// Succs, the predecessor when read from Preds).
	Task TaskID
	// Data is the volume of data shipped over the dependency, in the same
	// abstract units as platform bandwidth. The communication time between
	// two tasks placed on different processors a and b is Data / B(a, b)
	// (Definition 2, Eq. 2); it is zero when both run on the same processor.
	Data float64
}

// Graph is a directed acyclic application workflow: a set of tasks plus
// data-dependency edges. The zero value is an empty, usable graph.
//
// Graph methods never mutate shared state concurrently; a Graph is safe for
// concurrent readers once fully constructed.
type Graph struct {
	tasks []Task
	succs [][]Arc
	preds [][]Arc
	edges int
}

// New returns an empty graph with capacity hints for n tasks.
func New(n int) *Graph {
	return &Graph{
		tasks: make([]Task, 0, n),
		succs: make([][]Arc, 0, n),
		preds: make([][]Arc, 0, n),
	}
}

// AddTask appends a task with the given name and returns its ID.
func (g *Graph) AddTask(name string) TaskID {
	id := TaskID(len(g.tasks))
	g.tasks = append(g.tasks, Task{ID: id, Name: name})
	g.succs = append(g.succs, nil)
	g.preds = append(g.preds, nil)
	return id
}

// AddPseudoTask appends a zero-cost pseudo task (used by normalisation).
func (g *Graph) AddPseudoTask(name string) TaskID {
	id := g.AddTask(name)
	g.tasks[id].Pseudo = true
	return id
}

// AddEdge adds a dependency from task u to task v carrying the given data
// volume. It returns an error for out-of-range endpoints, self-loops,
// duplicate edges, or negative data volumes. Cycle detection is deferred to
// Validate so graphs can be built in any order.
func (g *Graph) AddEdge(u, v TaskID, data float64) error {
	if err := g.checkEdge(u, v, data); err != nil {
		return err
	}
	for _, a := range g.succs[u] {
		if a.Task == v {
			return fmt.Errorf("dag: duplicate edge (%d -> %d)", u, v)
		}
	}
	g.succs[u] = append(g.succs[u], Arc{Task: v, Data: data})
	g.preds[v] = append(g.preds[v], Arc{Task: u, Data: data})
	g.edges++
	return nil
}

// checkEdge applies AddEdge's per-edge checks: endpoints in range, no
// self-loop, non-negative data.
func (g *Graph) checkEdge(u, v TaskID, data float64) error {
	if !g.valid(u) || !g.valid(v) {
		return fmt.Errorf("dag: edge (%d -> %d) references unknown task (graph has %d tasks)", u, v, len(g.tasks))
	}
	if u == v {
		return fmt.Errorf("dag: self-loop on task %d", u)
	}
	if data < 0 {
		return fmt.Errorf("dag: negative data volume %g on edge (%d -> %d)", data, u, v)
	}
	return nil
}

// MustAddEdge is AddEdge that panics on error; it is intended for
// statically-known graph constructions (tests, fixed real-world workflows).
func (g *Graph) MustAddEdge(u, v TaskID, data float64) {
	if err := g.AddEdge(u, v, data); err != nil {
		panic(err)
	}
}

func (g *Graph) valid(id TaskID) bool { return id >= 0 && int(id) < len(g.tasks) }

// NumTasks reports the number of tasks in the graph.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// NumEdges reports the number of dependency edges in the graph.
func (g *Graph) NumEdges() int { return g.edges }

// Task returns the task record for id. It panics on out-of-range IDs.
func (g *Graph) Task(id TaskID) Task { return g.tasks[id] }

// Succs returns the out-arcs of id. The returned slice is owned by the graph
// and must not be modified.
func (g *Graph) Succs(id TaskID) []Arc { return g.succs[id] }

// Preds returns the in-arcs of id. The returned slice is owned by the graph
// and must not be modified.
func (g *Graph) Preds(id TaskID) []Arc { return g.preds[id] }

// OutDegree reports the number of successors of id.
func (g *Graph) OutDegree(id TaskID) int { return len(g.succs[id]) }

// InDegree reports the number of predecessors of id.
func (g *Graph) InDegree(id TaskID) int { return len(g.preds[id]) }

// EdgeData returns the data volume carried by edge (u -> v) and whether the
// edge exists.
func (g *Graph) EdgeData(u, v TaskID) (float64, bool) {
	if !g.valid(u) || !g.valid(v) {
		return 0, false
	}
	for _, a := range g.succs[u] {
		if a.Task == v {
			return a.Data, true
		}
	}
	return 0, false
}

// Entries returns all tasks with no predecessors, in ID order.
func (g *Graph) Entries() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if len(g.preds[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Exits returns all tasks with no successors, in ID order.
func (g *Graph) Exits() []TaskID {
	var out []TaskID
	for i := range g.tasks {
		if len(g.succs[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Entry returns the unique entry task, or None if the graph has zero or
// several entry tasks (normalise first in that case).
func (g *Graph) Entry() TaskID {
	es := g.Entries()
	if len(es) != 1 {
		return None
	}
	return es[0]
}

// Exit returns the unique exit task, or None if the graph has zero or
// several exit tasks.
func (g *Graph) Exit() TaskID {
	es := g.Exits()
	if len(es) != 1 {
		return None
	}
	return es[0]
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		tasks: append([]Task(nil), g.tasks...),
		succs: make([][]Arc, len(g.succs)),
		preds: make([][]Arc, len(g.preds)),
		edges: g.edges,
	}
	for i := range g.succs {
		c.succs[i] = append([]Arc(nil), g.succs[i]...)
		c.preds[i] = append([]Arc(nil), g.preds[i]...)
	}
	return c
}

// SortArcs orders every adjacency list by neighbour ID. Construction order is
// preserved by default; deterministic algorithms that iterate arcs may call
// this once to make results independent of build order. The wire form
// lists edges in this order, so a graph decoded from it is sorted already.
func (g *Graph) SortArcs() {
	for i := range g.succs {
		slices.SortFunc(g.succs[i], cmpArcTask)
		slices.SortFunc(g.preds[i], cmpArcTask)
	}
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("dag.Graph{tasks: %d, edges: %d}", len(g.tasks), g.edges)
}
