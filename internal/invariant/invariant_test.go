package invariant

import (
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	for spec, want := range map[string]bool{"": false, "off": false, " off ": false, "all": true} {
		got, err := Parse(spec)
		if err != nil || got != want {
			t.Errorf("Parse(%q) = (%v, %v), want %v", spec, got, err, want)
		}
	}
	// The per-check subsets are gone: every armed run checks everything.
	for _, spec := range []string{"ledgre", "ledger", "credits,watchdog", "all,ledger"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestLedgerBalanced(t *testing.T) {
	ok := Ledger{Injected: 10, Delivered: 6, Declared: 2, InFlight: 2, Census: 2}
	if !ok.Balanced() {
		t.Errorf("balanced ledger rejected: %s", ok)
	}
	lost := ok
	lost.Delivered = 5 // one packet vanished untallied
	if lost.Balanced() {
		t.Errorf("unbalanced ledger accepted: %s", lost)
	}
	drift := ok
	drift.Census = 3 // counter disagrees with the structural walk
	if drift.Balanced() {
		t.Errorf("census drift accepted: %s", drift)
	}
}

func TestErrorReport(t *testing.T) {
	e := &Error{
		Violations: []Violation{
			{Cycle: 100, Check: "ledger", Msg: "account open"},
			{Cycle: 100, Check: "credits", Msg: "leak"},
		},
		Dump: "dump body\n",
	}
	if msg := e.Error(); !strings.Contains(msg, "ledger") || !strings.Contains(msg, "+1 more") {
		t.Errorf("summary %q", msg)
	}
	rep := e.Report()
	for _, want := range []string{"account open", "leak", "dump body"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}
