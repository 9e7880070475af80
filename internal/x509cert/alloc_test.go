package x509cert

import (
	"testing"

	"repro/internal/raceflag"
)

func allocGuard(t *testing.T, budget float64, fn func()) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("allocation accounting is skewed under -race")
	}
	got := testing.AllocsPerRun(200, fn)
	t.Logf("%.1f allocs/op (budget %.0f)", got, budget)
	if got > budget {
		t.Errorf("%.1f allocs/op exceeds budget of %.0f", got, budget)
	}
}

func allocTestDER(t *testing.T) []byte {
	t.Helper()
	der, err := Build(baseTemplate(), testCAKey, testLeafKey)
	if err != nil {
		t.Fatal(err)
	}
	return der
}

// TestAllocBudgetParse pins the steady-state allocation cost of both
// parser entry points. ParseLint is the zero-copy pipeline path;
// ParseWithMode adds exactly the defensive input copy on top of it.
// The budgets assume pooled Certificate structs, so each iteration
// releases its cert like the pipeline does. ParseLint reads 6: the
// serial's big.Int and its words, one ATV and one RDN array shared by
// both DNs, the extension list and the SAN list.
func TestAllocBudgetParse(t *testing.T) {
	der := allocTestDER(t)
	for _, tc := range []struct {
		name   string
		mode   ParseMode
		lint   bool
		budget float64
	}{
		{"ParseLint/strict", ParseStrict, true, 8},
		{"ParseLint/lenient", ParseLenient, true, 8},
		{"ParseWithMode/strict", ParseStrict, false, 9},
		{"ParseWithMode/lenient", ParseLenient, false, 9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocGuard(t, tc.budget, func() {
				var c *Certificate
				var err error
				if tc.lint {
					c, err = ParseLint(der, tc.mode)
				} else {
					c, err = ParseWithMode(der, tc.mode)
				}
				if err != nil {
					t.Fatal(err)
				}
				ReleaseCertificate(c)
			})
		})
	}
}
