package pebil

import "testing"

// FuzzParseSamplingPolicy checks the policy grammar shared by the -sampling
// flags and the "sampling" wire field: parsing never panics, an accepted
// policy validates, its normalized form equals itself (so it can key the
// engine's memo), and its canonical String parses back to the same
// normalized policy.
func FuzzParseSamplingPolicy(f *testing.F) {
	for _, tc := range parsePolicyCases {
		f.Add(tc.in)
	}
	for _, s := range badPolicies {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseSamplingPolicy(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Parse(%q) accepted %+v, which fails Validate: %v", s, p, err)
		}
		n := p.Normalized()
		if p.Normalized() != n {
			t.Fatalf("Parse(%q): normalized policy %+v is not equal to itself", s, n)
		}
		back, err := ParseSamplingPolicy(p.String())
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", s, p.String(), err)
		}
		if back.Normalized() != n {
			t.Fatalf("Parse(%q) round trip via %q: %+v != %+v", s, p.String(), back.Normalized(), n)
		}
	})
}
