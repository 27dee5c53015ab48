package policy_test

import (
	"strconv"
	"strings"
	"testing"

	"colab/internal/experiment"
	"colab/internal/policy"
)

// policyNameSeeds are the names FuzzPolicyName starts from: every built-in
// and its composition, the stage-ablation compositions, malformed
// compositions and padded names.
func policyNameSeeds() []string {
	seeds := []string{
		"colab.labeler+", ".selector", "colab.labeler+gts.labeler", "+",
		"", " ", "bogus", "bogus.labeler", "colab.bogus",
		" colab", "colab\t", " colab.labeler +colab.selector ",
	}
	for _, name := range policy.Names() {
		seeds = append(seeds, name)
		if comp, ok := policy.CanonicalComposition(name); ok {
			seeds = append(seeds, comp)
		}
	}
	for _, v := range experiment.AblationVariants() {
		seeds = append(seeds, v.Composition)
	}
	return seeds
}

// FuzzPolicyName checks the name layer that serve queries and fleet wire
// cells pass through: Canonical never panics and is idempotent, a name is
// valid exactly when its canonical form is (so a cell key never files a
// name that cannot run), and every rejection quotes its input.
func FuzzPolicyName(f *testing.F) {
	for _, s := range policyNameSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		canon := policy.Canonical(name)
		if again := policy.Canonical(canon); again != canon {
			t.Fatalf("Canonical not idempotent: %q -> %q -> %q", name, canon, again)
		}
		err := policy.Check(name)
		if cerr := policy.Check(canon); (err == nil) != (cerr == nil) {
			t.Fatalf("Check(%q) = %v but Check(Canonical = %q) = %v", name, err, canon, cerr)
		}
		if err != nil && !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Fatalf("rejection of %q does not quote it: %v", name, err)
		}
	})
}
