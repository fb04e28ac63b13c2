package sched_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"hdlts/internal/dag"
	"hdlts/internal/gen"
	"hdlts/internal/platform"
	"hdlts/internal/registry"
	"hdlts/internal/sched"
	"hdlts/internal/workflows"
)

// This file keeps the reflection-based encoding/json codec the wire format
// was defined by, as the oracle the internal/wire codec is held to: same
// accepted inputs, same decoded values, same bytes out.

type oracleGraph struct{ g *dag.Graph }

type oracleJSONGraph struct {
	Tasks []oracleJSONTask `json:"tasks"`
	Edges []oracleJSONEdge `json:"edges"`
}

type oracleJSONTask struct {
	Name   string `json:"name"`
	Pseudo bool   `json:"pseudo,omitempty"`
}

type oracleJSONEdge struct {
	From dag.TaskID `json:"from"`
	To   dag.TaskID `json:"to"`
	Data float64    `json:"data"`
}

func (og *oracleGraph) MarshalJSON() ([]byte, error) {
	g := og.g
	jg := oracleJSONGraph{Tasks: make([]oracleJSONTask, g.NumTasks())}
	for i := 0; i < g.NumTasks(); i++ {
		t := g.Task(dag.TaskID(i))
		jg.Tasks[i] = oracleJSONTask{Name: t.Name, Pseudo: t.Pseudo}
	}
	for u := 0; u < g.NumTasks(); u++ {
		arcs := append([]dag.Arc(nil), g.Succs(dag.TaskID(u))...)
		sort.Slice(arcs, func(a, b int) bool { return arcs[a].Task < arcs[b].Task })
		for _, a := range arcs {
			jg.Edges = append(jg.Edges, oracleJSONEdge{From: dag.TaskID(u), To: a.Task, Data: a.Data})
		}
	}
	return json.Marshal(jg)
}

func (og *oracleGraph) UnmarshalJSON(b []byte) error {
	var jg oracleJSONGraph
	if err := json.Unmarshal(b, &jg); err != nil {
		return fmt.Errorf("dag: decode: %w", err)
	}
	n := dag.New(len(jg.Tasks))
	for _, t := range jg.Tasks {
		if t.Pseudo {
			n.AddPseudoTask(t.Name)
		} else {
			n.AddTask(t.Name)
		}
	}
	for _, e := range jg.Edges {
		if err := n.AddEdge(e.From, e.To, e.Data); err != nil {
			return err
		}
	}
	if err := n.Validate(); err != nil {
		return err
	}
	og.g = n
	return nil
}

type oracleJSONProblem struct {
	Graph     *oracleGraph `json:"graph"`
	Procs     int          `json:"procs"`
	Bandwidth [][]float64  `json:"bandwidth,omitempty"`
	Costs     [][]float64  `json:"costs"`
}

func oracleWriteProblem(pr *sched.Problem, w io.Writer) error {
	jp := oracleJSONProblem{Graph: &oracleGraph{pr.G}, Procs: pr.NumProcs()}
	for t := 0; t < pr.NumTasks(); t++ {
		jp.Costs = append(jp.Costs, pr.W.Row(t))
	}
	nonUniform := false
	for a := 0; a < pr.NumProcs() && !nonUniform; a++ {
		for b := 0; b < pr.NumProcs(); b++ {
			if a != b && pr.P.Bandwidth(platform.Proc(a), platform.Proc(b)) != 1 {
				nonUniform = true
				break
			}
		}
	}
	if nonUniform {
		jp.Bandwidth = make([][]float64, pr.NumProcs())
		for a := 0; a < pr.NumProcs(); a++ {
			jp.Bandwidth[a] = make([]float64, pr.NumProcs())
			for b := 0; b < pr.NumProcs(); b++ {
				if a != b {
					jp.Bandwidth[a][b] = pr.P.Bandwidth(platform.Proc(a), platform.Proc(b))
				}
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jp)
}

func oracleReadProblem(r io.Reader) (*sched.Problem, error) {
	var jp oracleJSONProblem
	if err := json.NewDecoder(r).Decode(&jp); err != nil {
		return nil, fmt.Errorf("sched: decode problem: %w", err)
	}
	if jp.Graph == nil {
		return nil, fmt.Errorf("sched: problem file has no graph")
	}
	var pl *platform.Platform
	var err error
	if jp.Bandwidth != nil {
		for i := range jp.Bandwidth {
			if i < len(jp.Bandwidth[i]) {
				jp.Bandwidth[i][i] = 1
			}
		}
		pl, err = platform.NewWithBandwidth(jp.Bandwidth)
	} else {
		pl, err = platform.NewUniform(jp.Procs)
	}
	if err != nil {
		return nil, err
	}
	w, err := platform.CostsFromRows(jp.Costs)
	if err != nil {
		return nil, err
	}
	return sched.NewProblem(jp.Graph.g, pl, w)
}

type oracleJSONSchedule struct {
	Algorithm  string                `json:"algorithm,omitempty"`
	Makespan   float64               `json:"makespan"`
	Placements []oracleJSONPlacement `json:"placements"`
}

type oracleJSONPlacement struct {
	Task      dag.TaskID    `json:"task"`
	Name      string        `json:"name,omitempty"`
	Proc      platform.Proc `json:"proc"`
	Start     float64       `json:"start"`
	Finish    float64       `json:"finish"`
	Duplicate bool          `json:"duplicate,omitempty"`
}

func oracleWriteSchedule(s *sched.Schedule, w io.Writer, algorithm string) error {
	pr := s.Problem()
	js := oracleJSONSchedule{Algorithm: algorithm, Makespan: s.Makespan()}
	for t := 0; t < pr.NumTasks(); t++ {
		for _, c := range s.Copies(dag.TaskID(t)) {
			js.Placements = append(js.Placements, oracleJSONPlacement{
				Task: c.Task, Name: pr.G.Task(c.Task).Name,
				Proc: c.Proc, Start: c.Start, Finish: c.Finish, Duplicate: c.Duplicate,
			})
		}
	}
	sort.Slice(js.Placements, func(i, j int) bool {
		a, b := js.Placements[i], js.Placements[j]
		if a.Proc != b.Proc {
			return a.Proc < b.Proc
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Task < b.Task
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(js)
}

const oracleEps = 1e-9

func oracleReadSchedule(pr *sched.Problem, r io.Reader) (*sched.Schedule, string, error) {
	var js oracleJSONSchedule
	if err := json.NewDecoder(r).Decode(&js); err != nil {
		return nil, "", fmt.Errorf("sched: decode schedule: %w", err)
	}
	s := sched.NewSchedule(pr)
	for _, p := range js.Placements {
		if int(p.Task) < 0 || int(p.Task) >= pr.NumTasks() {
			return nil, "", fmt.Errorf("sched: placement references unknown task %d", p.Task)
		}
		if int(p.Proc) < 0 || int(p.Proc) >= pr.NumProcs() {
			return nil, "", fmt.Errorf("sched: placement references unknown processor %d", p.Proc)
		}
		var err error
		if p.Duplicate {
			err = s.PlaceDuplicate(p.Task, p.Proc, p.Start)
		} else {
			err = s.Place(p.Task, p.Proc, p.Start)
		}
		if err != nil {
			return nil, "", err
		}
		want := p.Start + pr.Exec(p.Task, p.Proc)
		if diff := p.Finish - want; diff > oracleEps || diff < -oracleEps {
			return nil, "", fmt.Errorf("sched: task %d finish %g inconsistent with costs (want %g)", p.Task, p.Finish, want)
		}
	}
	if !s.Complete() {
		return nil, "", fmt.Errorf("sched: schedule file covers %d of %d tasks", s.NumPlaced(), pr.NumTasks())
	}
	if diff := js.Makespan - s.Makespan(); diff > oracleEps || diff < -oracleEps {
		return nil, "", fmt.Errorf("sched: recorded makespan %g does not match reconstructed %g", js.Makespan, s.Makespan())
	}
	return s, js.Algorithm, nil
}

// sameBits compares floats bit for bit, so -0 and 0 differ.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameProblem fails unless got and want have equal shape, task names and
// flags, arcs in adjacency order, W and bandwidth.
func sameProblem(t *testing.T, got, want *sched.Problem) {
	t.Helper()
	if got.NumTasks() != want.NumTasks() || got.NumProcs() != want.NumProcs() || got.G.NumEdges() != want.G.NumEdges() {
		t.Fatalf("shape %dx%d/%d edges, oracle %dx%d/%d edges", got.NumTasks(), got.NumProcs(), got.G.NumEdges(),
			want.NumTasks(), want.NumProcs(), want.G.NumEdges())
	}
	for i := 0; i < want.NumTasks(); i++ {
		id := dag.TaskID(i)
		if got.G.Task(id) != want.G.Task(id) {
			t.Fatalf("task %d = %+v, oracle %+v", i, got.G.Task(id), want.G.Task(id))
		}
		for _, pair := range [][2][]dag.Arc{{got.G.Succs(id), want.G.Succs(id)}, {got.G.Preds(id), want.G.Preds(id)}} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("task %d adjacency %v, oracle %v", i, pair[0], pair[1])
			}
			for k := range pair[0] {
				if pair[0][k].Task != pair[1][k].Task || !sameBits(pair[0][k].Data, pair[1][k].Data) {
					t.Fatalf("task %d adjacency %v, oracle %v", i, pair[0], pair[1])
				}
			}
		}
		for p := 0; p < want.NumProcs(); p++ {
			if g, w := got.W.At(i, platform.Proc(p)), want.W.At(i, platform.Proc(p)); !sameBits(g, w) {
				t.Fatalf("W(%d,%d) = %v, oracle %v", i, p, g, w)
			}
		}
	}
	if got.P.Uniform() != want.P.Uniform() {
		t.Fatalf("uniform platform %v, oracle %v", got.P.Uniform(), want.P.Uniform())
	}
	for a := 0; a < want.NumProcs(); a++ {
		for b := 0; b < want.NumProcs(); b++ {
			if g, w := got.P.Bandwidth(platform.Proc(a), platform.Proc(b)), want.P.Bandwidth(platform.Proc(a), platform.Proc(b)); !sameBits(g, w) {
				t.Fatalf("B(%d,%d) = %v, oracle %v", a, b, g, w)
			}
		}
	}
}

// checkProblemCodec runs one input through both codecs.
func checkProblemCodec(t *testing.T, data []byte) {
	t.Helper()
	want, werr := oracleReadProblem(bytes.NewReader(data))
	got, gerr := sched.ReadProblemJSON(bytes.NewReader(data))
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("input %q:\nwire codec error: %v\noracle error:     %v", data, gerr, werr)
	}
	if werr != nil {
		return
	}
	sameProblem(t, got, want)
	var a, b bytes.Buffer
	if err := got.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := oracleWriteProblem(want, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("canonical bytes differ:\n%s\noracle:\n%s", a.Bytes(), b.Bytes())
	}
}

// problemSeeds covers the corners of encoding/json's semantics the wire
// reader reproduces.
var problemSeeds = []string{
	`{"graph":{"tasks":[{"name":"a"},{"name":"b"}],"edges":[{"from":0,"to":1,"data":2}]},"procs":2,"costs":[[1,2],[3,4]]}`,
	`{"GRAPH":{"Tasks":[{"NAME":"a","PSEUDO":true}],"EDGES":null},"Procs":1,"COSTS":[[1]]}`,
	`{"graph":{"tasks":[{"name":"a"}],"edges":[],"extra":{"deep":[1,{"x":null}]}},"procs":1,"costs":[[1]],"unknown":"x"}`,
	`{"procs":3,"procs":1,"graph":{"tasks":[{"name":"a"}]},"costs":[[7,8]],"costs":[[5]]}`,
	`{"graph":{"tasks":[{"name":"a"},{"name":"b"}],"edges":[{"from":0,"to":1,"data":1}]},"procs":2,"costs":[[5,6],[1,1]],"costs":[[1,null],[null,2]]}`,
	`{"graph":{"tasks":[{"name":"a","pseudo":true},{"name":"b"}],"tasks":[{"name":"c"},{"name":"d"}],"edges":[{"from":0,"to":1,"data":4}],"edges":[{"from":0,"to":1}]},"procs":1,"costs":[[1],[2]]}`,
	`{"graph":null,"graph":{"tasks":[{"name":null}]},"procs":null,"procs":1,"costs":[[null]],"bandwidth":null}`,
	`{"graph":{"tasks":[{"name":"\u00e9\u2028<&>\"\\\ud83d\ude00\ud800"}]},"procs":1,"costs":[[1]]}`,
	"{\"graph\":{\"tasks\":[{\"name\":\"caf\xc3\xa9 \xff\"}]},\"procs\":1,\"costs\":[[1]]}",
	`{"graph":{"tasks":[{"name":"a"},{"name":"b"}],"edges":[{"from":0,"to":1,"data":1e-7}]},"procs":2,"costs":[[-0,1E3],[2.5e+2,0.000001]]}`,
	`{"graph":{"tasks":[{"name":"a"},{"name":"b"}],"edges":[{"from":0,"to":1,"data":3}]},"procs":9,"bandwidth":[[0,2.5],[2.5,0]],"costs":[[1,2],[3,4]]}`,
	`{"graph":{"tasks":[{"name":"a"}]},"procs":1,"costs":[[1]],"bandwidth":[]}`,
	`{"graph":{"tasks":[{"name":"a"}]},"procs":1.0,"costs":[[1]]}`,
	`{"graph":{"tasks":[{"name":"a"}],"edges":[{"from":0,"to":0.5,"data":1}]},"procs":1,"costs":[[1]]}`,
	`{"graph":{"tasks":[{"name":"a"}]},"proc\u017f":2,"costs":[[1,1]]}`,
	`{"graph":{"tasks":[{"name":"a"}]},"procs":1,"costs":[[1]]} trailing`,
	`{"graph":{"tasks":[{"name":"a"}]},"procs":1,"costs":[[1]],}`,
	`{"graph":{"tasks":[{"name":"a"},{"name":"b"}],"edges":[{"from":0,"to":1,"data":1},{"from":0,"to":1,"data":2}]},"procs":1,"costs":[[1],[1]]}`,
	`{"graph":{"tasks":[{"name":"a"}]},"procs":1,"costs":[[1e400]]}`,
	`null`, `[]`, `{}`, ``, `{"graph":5}`, `{"graph":{"tasks":"x"}}`,
}

// FuzzProblemCodecMatchesStdlib holds ReadProblemJSON and WriteJSON to the
// reflection oracle: for any input both reject, or both accept with equal
// shape, names, edges, W and bandwidth, and byte-identical canonical
// output.
func FuzzProblemCodecMatchesStdlib(f *testing.F) {
	for _, s := range problemSeeds {
		f.Add([]byte(s))
	}
	var fig1 bytes.Buffer
	if err := workflows.PaperExample().WriteJSON(&fig1); err != nil {
		f.Fatal(err)
	}
	f.Add(fig1.Bytes())
	f.Fuzz(checkProblemCodec)
}

func TestProblemCodecSeedsMatchStdlib(t *testing.T) {
	for i, s := range problemSeeds {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkProblemCodec(t, []byte(s)) })
	}
}

// scheduleFixture is a three-task problem on two processors with a
// schedule that duplicates its entry task.
func scheduleFixture(t testing.TB) (*sched.Problem, *sched.Schedule) {
	g := dag.New(3)
	a, b, c := g.AddTask("a<1>"), g.AddTask("b"), g.AddTask("")
	g.MustAddEdge(a, b, 5)
	g.MustAddEdge(a, c, 5)
	pr := sched.MustProblem(g, platform.MustUniform(2),
		platform.MustCostsFromRows([][]float64{{2, 4}, {3, 1}, {2, 2}}))
	s := sched.NewSchedule(pr)
	for _, step := range []func() error{
		func() error { return s.Place(a, 0, 0) },
		func() error { return s.PlaceDuplicate(a, 1, 0) },
		func() error { return s.Place(b, 1, 4) },
		func() error { return s.Place(c, 0, 2) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return pr, s
}

// FuzzScheduleCodecMatchesStdlib holds ReadScheduleJSON to the oracle: both
// reject, or both accept with the same placements and algorithm name.
func FuzzScheduleCodecMatchesStdlib(f *testing.F) {
	pr, s := scheduleFixture(f)
	var seed bytes.Buffer
	if err := s.WriteScheduleJSON(&seed, "HDLTS"); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"ALGORITHM":"x","makespan":5.5,"placements":[{"task":0,"proc":0,"start":0,"finish":2},` +
		`{"task":0,"proc":1,"start":0,"finish":4,"duplicate":true},{"task":1,"proc":1,"start":4,"finish":5},` +
		`{"task":2,"proc":0,"start":2,"finish":4,"name":null,"x":[1]}]}`))
	f.Add([]byte(`{"placements":[{"task":0,"proc":1}],"placements":[{"start":0,"finish":4},null],"makespan":4}`))
	f.Add([]byte(`{"placements":null,"algorithm":null}`))
	f.Add([]byte(`{"placements":[{"task":1.5}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, walg, werr := oracleReadSchedule(pr, bytes.NewReader(data))
		got, galg, gerr := sched.ReadScheduleJSON(pr, bytes.NewReader(data))
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("input %q:\nwire codec error: %v\noracle error:     %v", data, gerr, werr)
		}
		if werr != nil {
			return
		}
		if galg != walg {
			t.Fatalf("algorithm %q, oracle %q", galg, walg)
		}
		for task := 0; task < pr.NumTasks(); task++ {
			gc, wc := got.Copies(dag.TaskID(task)), want.Copies(dag.TaskID(task))
			if fmt.Sprint(gc) != fmt.Sprint(wc) {
				t.Fatalf("task %d copies %v, oracle %v", task, gc, wc)
			}
		}
	})
}

// decorated rebuilds pr with awkward task names (HTML-significant bytes,
// non-ASCII, line separators) and, when nonUniform, a symmetric
// non-uniform bandwidth matrix.
func decorated(t *testing.T, pr *sched.Problem, rng *rand.Rand, nonUniform bool) *sched.Problem {
	names := []string{"<T&%d>", "caf\u00e9-%d", "\u2028sep%d\u2029", "tab\t%d\"q\"", "\U0001F600%d", "plain%d", "%d"}
	g := dag.New(pr.NumTasks())
	for i := 0; i < pr.NumTasks(); i++ {
		name := fmt.Sprintf(names[rng.Intn(len(names))], i)
		if pr.G.Task(dag.TaskID(i)).Pseudo {
			g.AddPseudoTask(name)
		} else {
			g.AddTask(name)
		}
	}
	for u := 0; u < pr.NumTasks(); u++ {
		for _, a := range pr.G.Succs(dag.TaskID(u)) {
			g.MustAddEdge(dag.TaskID(u), a.Task, a.Data)
		}
	}
	pl := pr.P
	if nonUniform {
		p := pr.NumProcs()
		bw := make([][]float64, p)
		for a := range bw {
			bw[a] = make([]float64, p)
		}
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				v := []float64{0.5, 2, 3.25, 1, 1e-7, 123456.789}[rng.Intn(6)]
				bw[a][b], bw[b][a] = v, v
			}
		}
		var err error
		if pl, err = platform.NewWithBandwidth(bw); err != nil {
			t.Fatal(err)
		}
	}
	return sched.MustProblem(g, pl, pr.W)
}

// goldenProblems is Fig. 1 plus seeded random problems, uniform and
// non-uniform, with awkward names.
func goldenProblems(t *testing.T) []*sched.Problem {
	out := []*sched.Problem{workflows.PaperExample()}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 60; i++ {
		pr, err := gen.Random(gen.Params{
			V: 5 + rng.Intn(60), Alpha: 0.5 + rng.Float64(), Density: 1 + rng.Intn(4), CCR: []float64{0.1, 1, 5}[rng.Intn(3)],
			Procs: 2 + rng.Intn(6), WDAG: 50, Beta: rng.Float64() * 2, MultiEntry: i%3 == 0,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, decorated(t, pr, rng, i%2 == 1))
	}
	return out
}

// TestWireCompatGolden pins the bytes the wire codec writes to the
// oracle's: canonical problem JSON (and its decoding) and WriteScheduleJSON
// output for algorithms with and without task duplication.
func TestWireCompatGolden(t *testing.T) {
	for i, pr := range goldenProblems(t) {
		var got, want bytes.Buffer
		if err := pr.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteProblem(pr, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("problem %d: canonical bytes differ", i)
		}
		checkProblemCodec(t, got.Bytes())
		for _, name := range []string{"hdlts", "heft", "sdbats", "cpop"} {
			s, err := registry.MustGet(name).Schedule(pr)
			if err != nil {
				t.Fatal(err)
			}
			got.Reset()
			want.Reset()
			if err := s.WriteScheduleJSON(&got, name); err != nil {
				t.Fatal(err)
			}
			if err := oracleWriteSchedule(s, &want, name); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("problem %d, %s: schedule bytes differ:\n%s\noracle:\n%s", i, name, got.Bytes(), want.Bytes())
			}
			back, alg, err := sched.ReadScheduleJSON(s.Problem(), bytes.NewReader(got.Bytes()))
			if err != nil || alg != name || back.Makespan() != s.Makespan() {
				t.Fatalf("problem %d, %s: schedule does not read back: %v", i, name, err)
			}
		}
	}
}
