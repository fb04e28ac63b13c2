package dag

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"hdlts/internal/wire"
)

// The graph's wire form is {"tasks": [{"name": ..., "pseudo": true?}, ...],
// "edges": [{"from": u, "to": v, "data": d}, ...]}. Task IDs are implicit
// in task array order, which matches the dense in-memory IDs; edges are
// listed by source ID, then target ID, and "edges" is null for a graph
// without edges. The internal/wire codec reads and writes it with
// encoding/json's exact semantics and bytes.

// AppendJSON writes the graph as one value into w.
func (g *Graph) AppendJSON(w *wire.Writer) {
	w.BeginObject()
	w.Key("tasks")
	w.BeginArray()
	for _, t := range g.tasks {
		w.BeginObject()
		w.Key("name")
		w.String(t.Name)
		if t.Pseudo {
			w.Key("pseudo")
			w.Bool(true)
		}
		w.EndObject()
	}
	w.EndArray()
	w.Key("edges")
	if g.edges == 0 {
		w.Null()
	} else {
		var sorted []Arc
		w.BeginArray()
		for u, arcs := range g.succs {
			if !slices.IsSortedFunc(arcs, cmpArcTask) {
				sorted = append(sorted[:0], arcs...)
				slices.SortFunc(sorted, cmpArcTask)
				arcs = sorted
			}
			for _, a := range arcs {
				w.BeginObject()
				w.Key("from")
				w.Int(u)
				w.Key("to")
				w.Int(int(a.Task))
				w.Key("data")
				w.Float(a.Data)
				w.EndObject()
			}
		}
		w.EndArray()
	}
	w.EndObject()
}

func cmpArcTask(a, b Arc) int { return int(a.Task) - int(b.Task) }

// MarshalJSON encodes the graph in its compact wire form.
func (g *Graph) MarshalJSON() ([]byte, error) {
	w := wire.GetWriter(false)
	defer w.Free()
	g.AppendJSON(w)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("dag: encode: %w", err)
	}
	return slices.Clone(w.Bytes()), nil
}

// UnmarshalJSON decodes a graph previously encoded with MarshalJSON. b must
// hold exactly one JSON value. The decoded graph is validated (acyclic,
// well-formed edges).
func (g *Graph) UnmarshalJSON(b []byte) error {
	s := wire.NewScanner(b)
	n, err := ScanJSON(s)
	s.AtEOF()
	if s.Err() != nil {
		return fmt.Errorf("dag: decode: %w", s.Err())
	}
	if err != nil {
		return err
	}
	*g = *n
	return nil
}

// WriteJSON writes the graph as indented JSON to w.
func (g *Graph) WriteJSON(w io.Writer) error {
	jw := wire.GetWriter(true)
	defer jw.Free()
	g.AppendJSON(jw)
	if err := jw.Err(); err != nil {
		return fmt.Errorf("dag: encode: %w", err)
	}
	jw.Newline()
	_, err := w.Write(jw.Bytes())
	return err
}

// ReadJSON decodes the first JSON value in r as a graph; anything after it
// is ignored.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, release, err := wire.ReadAll(r)
	if err != nil {
		return nil, err
	}
	defer release()
	s := wire.NewScanner(data)
	g, err := ScanJSON(s)
	if s.Err() != nil {
		return nil, fmt.Errorf("dag: decode: %w", s.Err())
	}
	return g, err
}

// ScanJSON decodes one graph value at the scanner's cursor and validates
// it. It consumes the whole value even when the graph is invalid, so
// callers embedding a graph in a larger document can keep reading; it
// returns s.Err() when the document is malformed. A null value decodes as
// an empty graph, which fails validation.
//
// The accepted input is encoding/json's for the wire form: keys match
// case-insensitively, unknown keys are skipped, a repeated key decodes
// over the earlier value (array elements and object fields merge, as
// reflection does), null leaves a field unchanged, and task IDs must be
// integers.
func ScanJSON(s *wire.Scanner) (*Graph, error) {
	var r graphReader
	r.s = s
	r.value()
	if s.Err() != nil {
		return nil, s.Err()
	}
	if r.err != nil {
		return nil, fmt.Errorf("dag: decode: %w", r.err)
	}
	names := string(r.names)
	tasks := make([]Task, r.nTasks)
	for i, t := range r.tasks[:r.nTasks] {
		tasks[i] = Task{ID: TaskID(i), Name: names[t.nameOff : t.nameOff+t.nameLen], Pseudo: t.pseudo}
	}
	g, err := build(tasks, r.edges[:r.nEdges])
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// taskSlot and edgeSlot are decoding slots. A repeated "tasks" or "edges"
// key decodes element i over slot i, so a field an element omits (or sets
// to null) keeps the slot's earlier value, exactly as encoding/json
// decodes into an existing slice. Names live in one byte arena and become
// substrings of a single string.
type taskSlot struct {
	nameOff, nameLen int
	pseudo           bool
}

type edgeSlot struct {
	from, to int
	data     float64
}

type graphReader struct {
	s      *wire.Scanner
	err    error // first type error; the scan continues past it
	names  []byte
	tasks  []taskSlot
	nTasks int
	edges  []edgeSlot
	nEdges int
}

func (r *graphReader) fail(err error) {
	if err != nil && r.err == nil {
		r.err = err
	}
}

// value decodes the graph object itself.
func (r *graphReader) value() {
	s := r.s
	switch k := s.Peek(); k {
	case wire.Null:
		s.Null()
		return
	case wire.Object:
	default:
		s.Skip()
		r.fail(fmt.Errorf("cannot decode %s into a graph", k))
		return
	}
	obj := s.Object()
	for obj.Next() {
		switch {
		case obj.Is("tasks"):
			r.tasks, r.nTasks = scanSlots(r, r.tasks, r.nTasks, (*graphReader).task)
		case obj.Is("edges"):
			r.edges, r.nEdges = scanSlots(r, r.edges, r.nEdges, (*graphReader).edge)
		default:
			s.Skip()
		}
	}
}

// scanSlots decodes an array of objects into slots with encoding/json's
// slice semantics: null or [] empties the slice (and forgets old
// elements), and element i decodes over slot i when it exists.
func scanSlots[T any](r *graphReader, slots []T, n int, elem func(*graphReader, *T)) ([]T, int) {
	s := r.s
	switch k := s.Peek(); k {
	case wire.Null:
		s.Null()
		return slots[:0], 0
	case wire.Array:
	default:
		s.Skip()
		r.fail(fmt.Errorf("cannot decode %s into an array", k))
		return slots, n
	}
	arr := s.Array()
	i := 0
	for ; arr.Next(); i++ {
		if i == len(slots) {
			var zero T
			slots = append(slots, zero)
		}
		switch k := s.Peek(); k {
		case wire.Null:
			s.Null()
		case wire.Object:
			elem(r, &slots[i])
		default:
			s.Skip()
			r.fail(fmt.Errorf("cannot decode %s into an object", k))
		}
	}
	if i == 0 {
		slots = slots[:0]
	}
	return slots, i
}

func (r *graphReader) task(t *taskSlot) {
	s := r.s
	obj := s.Object()
	for obj.Next() {
		switch {
		case obj.Is("name"):
			if s.Null() {
				continue
			}
			name, err := s.Str()
			if err != nil {
				r.fail(err)
				continue
			}
			t.nameOff, t.nameLen = len(r.names), len(name)
			r.names = append(r.names, name...)
		case obj.Is("pseudo"):
			r.fail(s.BoolInto(&t.pseudo))
		default:
			s.Skip()
		}
	}
}

func (r *graphReader) edge(e *edgeSlot) {
	s := r.s
	obj := s.Object()
	for obj.Next() {
		switch {
		case obj.Is("from"):
			r.fail(s.IntInto(&e.from))
		case obj.Is("to"):
			r.fail(s.IntInto(&e.to))
		case obj.Is("data"):
			r.fail(s.FloatInto(&e.data))
		default:
			s.Skip()
		}
	}
}

// build assembles a graph from decoded tasks and edges with AddEdge's
// checks, in AddEdge's order, so the first offending edge reports the same
// error it would when added one by one. Adjacency lists are carved from
// two shared arenas, each capped at its own length so a later AddEdge
// reallocates instead of overwriting a neighbour's list.
func build(tasks []Task, edges []edgeSlot) (*Graph, error) {
	g := &Graph{tasks: tasks, succs: make([][]Arc, len(tasks)), preds: make([][]Arc, len(tasks))}
	// Edges before the first one that fails a per-edge check are added;
	// a duplicate among them reports first, as it would have been met
	// first.
	valid := len(edges)
	var edgeErr error
	for i, e := range edges {
		if edgeErr = g.checkEdge(TaskID(e.from), TaskID(e.to), e.data); edgeErr != nil {
			valid = i
			break
		}
	}
	outDeg := make([]int, 2*len(tasks))
	inDeg := outDeg[len(tasks):]
	for _, e := range edges[:valid] {
		outDeg[e.from]++
		inDeg[e.to]++
	}
	succArena := make([]Arc, valid)
	predArena := make([]Arc, valid)
	so, po := 0, 0
	for u := range tasks {
		if d := outDeg[u]; d > 0 {
			g.succs[u] = succArena[so : so : so+d]
			so += d
		}
		if d := inDeg[u]; d > 0 {
			g.preds[u] = predArena[po : po : po+d]
			po += d
		}
	}
	for _, e := range edges[:valid] {
		u, v := TaskID(e.from), TaskID(e.to)
		for _, a := range g.succs[u] {
			if a.Task == v {
				return nil, fmt.Errorf("dag: duplicate edge (%d -> %d)", u, v)
			}
		}
		g.succs[u] = append(g.succs[u], Arc{Task: v, Data: e.data})
		g.preds[v] = append(g.preds[v], Arc{Task: u, Data: e.data})
		g.edges++
	}
	if edgeErr != nil {
		return nil, edgeErr
	}
	return g, nil
}

// WriteDOT renders the graph in Graphviz DOT syntax, labelling edges with
// their data volumes. Pseudo tasks are drawn dashed.
func (g *Graph) WriteDOT(w io.Writer, name string) error {
	var b strings.Builder
	if name == "" {
		name = "workflow"
	}
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [shape=box];\n", name)
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(TaskID(i))
		label := t.Name
		if label == "" {
			label = fmt.Sprintf("T%d", i+1)
		}
		style := ""
		if t.Pseudo {
			style = ", style=dashed"
		}
		fmt.Fprintf(&b, "  n%d [label=%q%s];\n", i, label, style)
	}
	for u := 0; u < g.NumTasks(); u++ {
		for _, a := range g.Succs(TaskID(u)) {
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"%g\"];\n", u, a.Task, a.Data)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
