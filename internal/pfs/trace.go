package pfs

// Op is one recorded operation: a file read, a file write, or (Net) a
// network transfer a task performed as part of a redistribution step.
type Op struct {
	Phase  int    // index into Trace.Phases
	Seq    int    // global issue order within the trace
	Client int    // issuing client node (sender, for Net ops)
	Write  bool   // true for writes, false for reads (ignored when Net)
	Net    bool   // true for network transfers
	File   string // file name (empty for Net ops)
	Offset int64  // byte offset
	Bytes  int64  // byte count
}

// Trace is an ordered record of file-system operations grouped into named
// phases. Operations within a phase were issued concurrently by the
// application's tasks (each client's own operations remain ordered by
// Seq); phases are strictly ordered. internal/sim replays traces through
// a cost model of the paper's platform.
type Trace struct {
	Phases []string
	Ops    []Op
	at     map[int]int // client -> the phase it last entered; absent: 0
}

// NewTrace returns an empty trace with an initial unnamed phase.
func NewTrace() *Trace {
	return &Trace{Phases: []string{""}, at: map[int]int{}}
}

func (t *Trace) beginPhase(client int, name string) {
	for p := t.at[client] + 1; p < len(t.Phases); p++ {
		if t.Phases[p] == name {
			t.at[client] = p
			return
		}
	}
	t.Phases = append(t.Phases, name)
	t.at[client] = len(t.Phases) - 1
}

func (t *Trace) add(op Op) {
	op.Phase = t.at[op.Client]
	op.Seq = len(t.Ops)
	t.Ops = append(t.Ops, op)
}

// PhaseOps returns the operations belonging to phase p in issue order.
func (t *Trace) PhaseOps(p int) []Op {
	var out []Op
	for _, op := range t.Ops {
		if op.Phase == p {
			out = append(out, op)
		}
	}
	return out
}

// Bytes returns total bytes read and written across the whole trace.
func (t *Trace) Bytes() (read, written int64) {
	for _, op := range t.Ops {
		if op.Net {
			continue
		}
		if op.Write {
			written += op.Bytes
		} else {
			read += op.Bytes
		}
	}
	return
}
