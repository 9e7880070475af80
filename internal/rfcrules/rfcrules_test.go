package rfcrules

import (
	"strings"
	"testing"

	"repro/internal/lint"
	_ "repro/internal/lint/lints"
)

func TestRuleCount(t *testing.T) {
	e := NewEngine()
	rules := e.DeriveRules()
	if len(rules) != 95 {
		t.Fatalf("derived %d rules, want 95", len(rules))
	}
	newCount := 0
	for _, r := range rules {
		if r.New {
			newCount++
		}
	}
	if newCount != 50 {
		t.Fatalf("%d new rules, want 50", newCount)
	}
}

// TestDeriveRulesFixed checks that derivation returns the same fixed
// table from every engine.
func TestDeriveRulesFixed(t *testing.T) {
	a, b := NewEngine().DeriveRules(), NewEngine().DeriveRules()
	if len(a) != 95 || len(b) != len(a) {
		t.Fatalf("derived %d and %d rules, want 95", len(a), len(b))
	}
	for i := range a {
		if a[i].LintName != b[i].LintName || a[i].Text != b[i].Text {
			t.Fatalf("rule %d: %q vs %q", i, a[i].LintName, b[i].LintName)
		}
	}
}

func TestRulesBindToLints(t *testing.T) {
	e := NewEngine()
	seen := make(map[string]bool)
	for _, r := range e.DeriveRules() {
		if seen[r.LintName] {
			t.Errorf("duplicate rule %s", r.LintName)
		}
		seen[r.LintName] = true
		l, ok := lint.Global.ByName(r.LintName)
		if !ok {
			t.Errorf("rule %s has no registered lint", r.LintName)
			continue
		}
		if l.New != r.New {
			t.Errorf("rule %s: New flag mismatch (rule %v, lint %v)", r.LintName, r.New, l.New)
		}
	}
	// Every lint must trace back to a rule.
	for _, l := range lint.Global.All() {
		if !seen[l.Name] {
			t.Errorf("lint %s has no rule in the knowledge base", l.Name)
		}
	}
}

func TestKeywordFilter(t *testing.T) {
	e := NewEngine()
	var rfc5280 Document
	for _, d := range e.Documents() {
		if d.Name == "RFC5280" {
			rfc5280 = d
		}
	}
	if rfc5280.Name == "" {
		t.Fatal("RFC5280 missing from knowledge base")
	}
	hits := FilterSections(rfc5280, Keywords)
	if len(hits) == 0 {
		t.Fatal("keyword filter found nothing in RFC 5280")
	}
	// A keyword set that matches nothing yields nothing.
	if got := FilterSections(rfc5280, []string{"zebra-crossing"}); len(got) != 0 {
		t.Fatalf("bogus keyword matched %d sections", len(got))
	}
}

func TestResolveUpdates(t *testing.T) {
	e := NewEngine()
	resolved := ResolveUpdates(e.Documents())
	// RFC 6818's explicitText update must have replaced §4.2.1.4 of
	// RFC 5280 (the "replacing outdated sections" of Step I).
	var found bool
	for _, s := range resolved["RFC5280"] {
		if s.ID == "4.2.1.4" {
			found = true
			if !strings.Contains(s.Text, "MUST NOT encode explicitText as IA5String") {
				t.Errorf("§4.2.1.4 not updated by RFC 6818: %q", s.Text)
			}
		}
	}
	if !found {
		t.Fatal("§4.2.1.4 missing after resolution")
	}
}

func TestRulesForField(t *testing.T) {
	e := NewEngine()
	got := e.RulesForField("CertificatePolicies")
	if len(got) < 4 {
		t.Fatalf("CertificatePolicies has %d rules, want >=4", len(got))
	}
	for _, r := range got {
		if !strings.Contains(strings.ToLower(r.LintName), "cp_") && !strings.Contains(r.LintName, "explicit_text") {
			t.Errorf("unexpected rule %s for CertificatePolicies", r.LintName)
		}
	}
}

func TestStructureGraph(t *testing.T) {
	e := NewEngine()
	graph := e.StructureGraph()
	if len(graph) == 0 {
		t.Fatal("empty structure graph")
	}
	var hasGN bool
	for _, p := range graph {
		if p.String() == "GeneralName-->DNSName-->IA5String" {
			hasGN = true
		}
	}
	if !hasGN {
		t.Error("expected the GeneralName-->DNSName-->IA5String path of Figure 5")
	}
}

func TestDocumentCrossReferences(t *testing.T) {
	e := NewEngine()
	byName := make(map[string]Document)
	for _, d := range e.Documents() {
		byName[d.Name] = d
	}
	// Updates must point at documents in the base.
	for _, d := range e.Documents() {
		for _, u := range d.Updates {
			if _, ok := byName[u]; !ok {
				t.Errorf("%s updates unknown document %s", d.Name, u)
			}
		}
	}
}
