// The adversary-plan codec: byzantine.Plan as declarative JSON, with
// behaviours named by the same strings byzantine.Behavior prints.
package spec

import (
	"fmt"
	"sort"

	"abenet/internal/byzantine"
)

// ByzantineSpec is the JSON shape of byzantine.Plan.
type ByzantineSpec struct {
	// Roles lists the adversarial nodes; at most one role per node.
	Roles []ByzantineRoleSpec `json:"roles"`
}

// ByzantineRoleSpec is the JSON shape of one byzantine.Role. Behavior is
// one of equivocate, mute, corrupt, stall.
type ByzantineRoleSpec struct {
	// Node is the role holder.
	Node int `json:"node"`
	// Behavior names the attack.
	Behavior string `json:"behavior"`
	// Prob is the per-message activation probability; 0 means 1.
	Prob float64 `json:"prob,omitempty"`
	// StallDelay is the hold-back distribution for stall roles; nil means
	// exponential(1).
	StallDelay *DistSpec `json:"stall_delay,omitempty"`
}

// behaviorKinds maps the JSON behaviour names onto byzantine.Behavior —
// the same strings byzantine.Behavior.String() prints, so specs and
// telemetry agree.
var behaviorKinds = map[string]byzantine.Behavior{
	byzantine.Equivocate.String(): byzantine.Equivocate,
	byzantine.Mute.String():       byzantine.Mute,
	byzantine.Corrupt.String():    byzantine.Corrupt,
	byzantine.Stall.String():      byzantine.Stall,
}

// behaviorNames returns the accepted behaviour names, sorted.
func behaviorNames() []string {
	names := make([]string, 0, len(behaviorKinds))
	for name := range behaviorKinds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Build converts the adversary spec into a byzantine.Plan (semantic
// validation — node ranges, probability bounds — happens in runner.Check,
// which calls byzantine.Plan.Validate against the concrete network size).
func (b *ByzantineSpec) Build() (*byzantine.Plan, error) {
	if b == nil {
		return nil, nil
	}
	plan := &byzantine.Plan{}
	for i, r := range b.Roles {
		behavior, ok := behaviorKinds[r.Behavior]
		if !ok {
			return nil, fmt.Errorf("spec: byzantine role %d: unknown behavior %q (have %v)", i, r.Behavior, behaviorNames())
		}
		role := byzantine.Role{Node: r.Node, Behavior: behavior, Prob: r.Prob}
		if r.StallDelay != nil {
			d, err := r.StallDelay.Build()
			if err != nil {
				return nil, fmt.Errorf("spec: byzantine role %d: %w", i, err)
			}
			role.StallDelay = d
		}
		plan.Roles = append(plan.Roles, role)
	}
	return plan, nil
}
