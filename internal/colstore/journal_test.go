package colstore

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"strdict/internal/dict"
	"strdict/internal/intcomp"
)

// recJournal records every journal event, for wiring tests.
type recJournal struct {
	mu     sync.Mutex
	events []string
	// appends per column, in arrival order.
	appends map[string][]string
	// mains counts main-part publications per column; lastMain the last
	// published row count.
	mains    map[string]int
	lastMain map[string]int
}

func newRecJournal() *recJournal {
	return &recJournal{
		appends:  make(map[string][]string),
		mains:    make(map[string]int),
		lastMain: make(map[string]int),
	}
}

func (j *recJournal) ev(s string) {
	j.mu.Lock()
	j.events = append(j.events, s)
	j.mu.Unlock()
}

func (j *recJournal) JournalAddTable(table string) { j.ev("table " + table) }
func (j *recJournal) JournalAddString(table, col string, f dict.Format) {
	j.ev(fmt.Sprintf("str %s.%s %s", table, col, f))
}
func (j *recJournal) JournalAddNumeric(table, col string, kind NumericKind) {
	if kind == Float64Kind {
		j.ev("float " + table + "." + col)
	} else {
		j.ev("int " + table + "." + col)
	}
}

func (j *recJournal) JournalAppend(col string, value string) {
	j.mu.Lock()
	j.appends[col] = append(j.appends[col], value)
	j.mu.Unlock()
}
func (j *recJournal) JournalAppendNumeric(col string, kind NumericKind, word uint64) {
	if kind == Float64Kind {
		j.JournalAppend(col, fmt.Sprint(math.Float64frombits(word)))
	} else {
		j.JournalAppend(col, fmt.Sprint(int64(word)))
	}
}

func (j *recJournal) JournalMainPart(col string, d dict.Dictionary, codes intcomp.Vector, nMain int) {
	j.mu.Lock()
	j.mains[col]++
	j.lastMain[col] = nMain
	if nMain != codes.Len() {
		panic("journal: nMain != codes.Len()")
	}
	j.mu.Unlock()
}

func TestJournalDDLAndAppendWiring(t *testing.T) {
	s := NewStore()
	j := newRecJournal()
	s.SetJournal(j)

	tb := s.AddTable("t")
	sc := tb.AddString("s", dict.Array)
	ic := tb.AddInt64("i")
	fc := tb.AddFloat64("f")

	want := []string{"table t", "str t.s array", "int t.i", "float t.f"}
	if len(j.events) != len(want) {
		t.Fatalf("events = %v, want %v", j.events, want)
	}
	for i, w := range want {
		if j.events[i] != w {
			t.Fatalf("event %d = %q, want %q", i, j.events[i], w)
		}
	}

	sc.Append("b")
	sc.Append("a")
	sc.Append("b")
	ic.Append(7)
	fc.Append(1.5)

	if got := j.appends["t.s"]; len(got) != 3 || got[0] != "b" || got[1] != "a" || got[2] != "b" {
		t.Fatalf("string appends = %v", got)
	}
	if got := j.appends["t.i"]; len(got) != 1 || got[0] != "7" {
		t.Fatalf("int appends = %v", got)
	}
	if got := j.appends["t.f"]; len(got) != 1 || got[0] != "1.5" {
		t.Fatalf("float appends = %v", got)
	}
}

func TestJournalReannouncesExistingSchema(t *testing.T) {
	s := NewStore()
	tb := s.AddTable("t")
	tb.AddString("s", dict.FCBlock)
	tb.AddInt64("i")

	j := newRecJournal()
	s.SetJournal(j)
	want := []string{"table t", "str t.s fc block", "int t.i"}
	if len(j.events) != len(want) {
		t.Fatalf("events = %v, want %v", j.events, want)
	}
	for i, w := range want {
		if j.events[i] != w {
			t.Fatalf("event %d = %q, want %q", i, j.events[i], w)
		}
	}
}

func TestJournalMainPartOnMergeAndRebuild(t *testing.T) {
	s := NewStore()
	j := newRecJournal()
	s.SetJournal(j)
	c := s.AddTable("t").AddString("s", dict.Array)
	for i := 0; i < 10; i++ {
		c.Append(fmt.Sprintf("v%02d", i%4))
	}

	c.Merge(dict.Array)
	if j.mains["t.s"] != 1 || j.lastMain["t.s"] != 10 {
		t.Fatalf("after merge: mains=%d lastMain=%d", j.mains["t.s"], j.lastMain["t.s"])
	}

	c.Append("zz")
	c.MergePartial(1)
	if j.mains["t.s"] != 2 || j.lastMain["t.s"] != 11 {
		t.Fatalf("after partial: mains=%d lastMain=%d", j.mains["t.s"], j.lastMain["t.s"])
	}

	c.Rebuild(dict.FCBlock)
	if j.mains["t.s"] != 3 || j.lastMain["t.s"] != 11 {
		t.Fatalf("after rebuild: mains=%d lastMain=%d", j.mains["t.s"], j.lastMain["t.s"])
	}

	// A skipped merge (empty delta, unchanged format) publishes nothing.
	c.Merge(c.Format())
	if j.mains["t.s"] != 3 {
		t.Fatalf("no-op merge published a main part")
	}
}

func TestMainPartsAndRestoreMain(t *testing.T) {
	s := NewStore()
	c := s.AddTable("t").AddString("s", dict.Array)
	for _, v := range []string{"c", "a", "b", "a"} {
		c.Append(v)
	}
	c.Merge(dict.FCBlock)
	d, codes, n := c.MainParts()
	if n != 4 || codes.Len() != 4 || d.Len() != 3 {
		t.Fatalf("MainParts: n=%d codes=%d dict=%d", n, codes.Len(), d.Len())
	}

	s2 := NewStore()
	c2 := s2.AddTable("t").AddString("s", dict.FCBlock)
	c2.RestoreMain(d, codes)
	if c2.Len() != 4 {
		t.Fatalf("restored Len = %d", c2.Len())
	}
	for i := 0; i < 4; i++ {
		if c2.Get(i) != c.Get(i) {
			t.Fatalf("row %d: %q != %q", i, c2.Get(i), c.Get(i))
		}
	}
	// Delta appends continue on top of the restored main part.
	c2.Append("zzz")
	if c2.Len() != 5 || c2.Get(4) != "zzz" {
		t.Fatalf("append after restore: len=%d", c2.Len())
	}
}
