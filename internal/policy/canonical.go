package policy

import "strings"

// Canonical returns the canonical form of a policy name: the stable
// closed-form key the distribution layer (cell keys, checkpoint journals,
// the serve cache) uses to decide that two names select the same
// scheduling behaviour.
//
// Registered whole-policy names are canonical as-is (they shadow the
// composition grammar, and a built-in and its composition are only
// conditionally equivalent — see CanonicalComposition's colab-dvfs note —
// so they must not share a key). Composition-grammar names normalise to
// slot order (labeler, allocator, selector, governor) with the implicit
// CFS allocator/selector defaults made explicit, so every spelling of one
// pipeline renders identically:
//
//	Canonical("wash.labeler") == Canonical("linux.selector+wash.labeler+linux.allocator")
//	                          == "wash.labeler+linux.allocator+linux.selector"
//
// Unknown or malformed names pass through verbatim: Canonical never
// errors, and callers that validate do so through Check.
func Canonical(name string) string {
	name = strings.TrimSpace(name)
	if registered(name) || !IsComposition(name) {
		return name
	}
	comp, err := parsePipeline(name)
	if err != nil {
		return name
	}
	parts := make([]string, 0, len(comp))
	for _, slot := range Slots() {
		if stage, ok := comp[slot]; ok {
			parts = append(parts, stage+"."+string(slot))
		}
	}
	return strings.Join(parts, "+")
}
