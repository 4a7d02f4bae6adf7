package topology

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
)

// PlatformSpec is a parsed spec string (see FromSpecAttrs for the grammar):
// the fabric shape, if any, and the platform-wide levels FromSpecAttrs grows
// into a tree.
type PlatformSpec struct {
	// Fabric is the non-tree fabric shape when the platform leads with a
	// torus or dragonfly tier ("torus:4x4 pack:1 core:4",
	// "dragonfly:2,4,2{big | small}"); nil on tree fabrics. A shaped
	// platform has no pod or rack tier — the shape is the whole fabric —
	// and its node count is the shape's.
	Fabric *FabricShape
	// levels are the levels below the machine root, outermost first, with
	// the implicit numa, core and pu levels present, every member machine
	// fused in, every count list checked against its parent count and
	// uniform lists collapsed to their one count.
	levels []specLevel
}

// Nodes returns the total number of cluster nodes of the platform; a spec
// without a node tier is one node.
func (p *PlatformSpec) Nodes() int {
	parents := 1
	for _, l := range p.levels {
		parents, _ = l.total(parents)
		if l.kind == Cluster {
			return parents
		}
	}
	return 1
}

// FusedSpec renders the platform as one canonical spec string: the fabric
// tiers (the shape token on a shaped fabric), then — level by level — the
// per-parent counts of every member machine in left-to-right order. It is
// the Spec() of the topology FromSpec builds from the same string, and
// parses back to itself. The error is always nil.
func (p *PlatformSpec) FusedSpec() (string, error) { return p.canonical(), nil }

var kindSpecNames = [numKinds]string{
	Pod: "pod", Rack: "rack", Cluster: "cluster", Group: "group", Package: "pack",
	NUMANode: "numa", L3: "l3", L2: "l2", L1: "l1", Core: "core", PU: "pu",
}

func (p *PlatformSpec) canonical() string {
	parts := make([]string, len(p.levels))
	for i, l := range p.levels {
		if p.Fabric != nil && l.kind == Cluster {
			parts[i] = p.Fabric.Token()
			continue
		}
		cs := make([]string, len(l.counts))
		for j, c := range l.counts {
			cs[j] = strconv.Itoa(c)
		}
		parts[i] = kindSpecNames[l.kind] + ":" + strings.Join(cs, ",")
	}
	return strings.Join(parts, " ")
}

// ParsePlatform parses a specification string without building anything
// whose size depends on the platform's node count; FromSpecAttrs, which
// documents the grammar, grows the tree from the result.
func ParsePlatform(spec string) (*PlatformSpec, error) {
	tokens, err := tokenize(spec)
	if err != nil {
		return nil, err
	}
	if len(tokens) == 0 {
		return nil, fmt.Errorf("topology: empty spec")
	}

	// The fabric tiers, outside in: one shape token, or pod, rack and the
	// node tier. node is the token that opened the node tier, the only one
	// that may carry member braces.
	p := &PlatformSpec{Fabric: tokens[0].shape}
	var fabric []specLevel
	var node *specToken
	i := 0
	if p.Fabric != nil {
		node = &tokens[0]
		fabric = []specLevel{{Cluster, []int{p.Fabric.Nodes()}}}
		i = 1
	} else {
		for _, tier := range []Kind{Pod, Rack} {
			if i < len(tokens) && tokens[i].kind == tier {
				if tokens[i].members != nil {
					return nil, fmt.Errorf("topology: member braces belong on the node tier, not on %q", tokens[i].text)
				}
				fabric = append(fabric, specLevel{tier, tokens[i].counts})
				i++
			}
		}
		if i < len(tokens) && opensNodeTier(tokens, i) {
			node = &tokens[i]
			fabric = append(fabric, specLevel{Cluster, node.counts})
			i++
		}
	}

	// The member machines: the braces' content, or the rest of the spec as
	// the one machine every node shares.
	braced := node != nil && node.members != nil
	var members [][]specLevel
	if !braced {
		m, err := memberLevels(fabric, tokens[i:])
		if err != nil {
			return nil, err
		}
		members = [][]specLevel{m}
	} else {
		if i < len(tokens) {
			return nil, fmt.Errorf("topology: token %q after the braced %s tier (the member specs are the braces' content)", tokens[i].text, node.name)
		}
		for mi, text := range node.members {
			m, err := bracedMember(fabric, text)
			if err == nil && mi > 0 && !slices.EqualFunc(m, members[0], func(a, b specLevel) bool { return a.kind == b.kind }) {
				err = fmt.Errorf("topology: members must share one level-kind sequence, unlike member 0")
			}
			if err != nil {
				return nil, fmt.Errorf("topology: platform member %d: %w", mi, err)
			}
			members = append(members, m)
		}
	}
	if node == nil {
		// No fabric at all: the spec is one machine.
		p.levels = members[0]
		return p, p.check()
	}

	// The node count: the node tier's list under the racks, or, for braces
	// without counts, the number of members spread evenly over the racks.
	tiers := fabric[:len(fabric)-1]
	racks, _, err := walk(tiers)
	if err != nil {
		return nil, err
	}
	if braced && p.Fabric == nil && node.counts == nil {
		if len(members)%racks != 0 {
			return nil, fmt.Errorf("topology: %d node members do not distribute across %d racks; give explicit counts as in %q",
				len(members), racks, "node:1,2{...}")
		}
		fabric[len(tiers)].counts = []int{len(members) / racks}
	}
	nodes, objects, err := walk(fabric)
	if err != nil {
		return nil, err
	}
	// A braced list shorter than the node count cycles; longer is an error
	// (members would be silently dropped).
	if len(members) > nodes {
		return nil, fmt.Errorf("topology: %d node members for %d nodes", len(members), nodes)
	}

	// A comma list in a member holds one count per parent object of that
	// member. When the nodes share one member and it does not fit that
	// reading, its lists are read platform-wide — one count per parent
	// across all the nodes, the form Spec() renders — and check has the
	// verdict. The platform's object total follows from the members' by
	// arithmetic, so an oversized platform is refused before fuse allocates
	// its per-parent lists.
	for mi, m := range members {
		_, n, err := walk(m)
		if err != nil && len(members) == 1 {
			p.levels = append(fabric, m...)
			return p, p.check()
		}
		if err != nil {
			return nil, fmt.Errorf("topology: platform member %d: %w", mi, err)
		}
		share := nodes / len(members)
		if mi < nodes%len(members) {
			share++
		}
		if n > 0 && share > maxSpecObjects/n { // share·n may not fit a 32-bit int
			return nil, errTooLarge
		}
		if objects += share * n; objects > maxSpecObjects {
			return nil, errTooLarge
		}
	}
	p.levels = append(fabric, fuse(members, nodes)...)
	return p, p.check()
}

var errTooLarge = fmt.Errorf("topology: spec describes more than %d objects", maxSpecObjects)

// check validates every level's count list against its parent count, bounds
// the platform's object total, and collapses uniform lists.
func (p *PlatformSpec) check() error {
	if _, _, err := walk(p.levels); err != nil {
		return err
	}
	for i, l := range p.levels {
		uniform := true
		for _, c := range l.counts {
			uniform = uniform && c == l.counts[0]
		}
		if uniform {
			p.levels[i].counts = l.counts[:1]
		}
	}
	return nil
}

// walk descends levels from one root object, checking every count list
// against the objects of the level above. It returns the number of objects
// of the last level and of all levels together.
func walk(levels []specLevel) (leaves, objects int, err error) {
	leaves = 1
	for _, l := range levels {
		if leaves, err = l.total(leaves); err != nil {
			return 0, 0, err
		}
		if objects += leaves; objects > maxSpecObjects {
			return 0, 0, errTooLarge
		}
	}
	return leaves, objects, nil
}

// fuse concatenates the member machines, cycling over the platform's nodes,
// into platform-wide levels: each level lists the per-parent counts of
// every node's member in left-to-right order. A level on which every member
// has the same single count stays a single count, so a homogeneous platform
// costs nothing per node. The members' lists have been checked by walk.
func fuse(members [][]specLevel, nodes int) []specLevel {
	fused := make([]specLevel, len(members[0]))
	parents := make([]int, len(members)) // per member, at the current level
	for mi := range parents {
		parents[mi] = 1
	}
	for li := range fused {
		first := members[0][li]
		fused[li].kind = first.kind
		uniform := true
		for _, m := range members {
			uniform = uniform && len(m[li].counts) == 1 && m[li].counts[0] == first.counts[0]
		}
		if uniform {
			fused[li].counts = first.counts
		} else {
			for n := 0; n < nodes; n++ {
				mi := n % len(members)
				if l := members[mi][li]; len(l.counts) > 1 {
					fused[li].counts = append(fused[li].counts, l.counts...)
				} else {
					for range parents[mi] {
						fused[li].counts = append(fused[li].counts, l.counts[0])
					}
				}
			}
		}
		for mi, m := range members {
			parents[mi], _ = m[li].total(parents[mi])
		}
	}
	return fused
}

// bracedMember is memberLevels for one member of a brace block, which is
// tokenized only now: a brace block may not nest.
func bracedMember(fabric []specLevel, text string) ([]specLevel, error) {
	tokens, err := tokenize(text)
	if err != nil {
		return nil, err
	}
	return memberLevels(fabric, tokens)
}

// memberLevels turns the tokens of one member machine into its normalized
// levels, and checks the order of the whole sequence below the machine
// root: the fabric tiers, then the member's levels.
func memberLevels(fabric []specLevel, tokens []specToken) ([]specLevel, error) {
	levels := make([]specLevel, 0, len(tokens)+3)
	for _, t := range tokens {
		if t.shape != nil {
			return nil, fmt.Errorf("topology: the %s fabric tier must be the first token of the spec", t.name)
		}
		if t.members != nil {
			return nil, fmt.Errorf("topology: member braces belong on the node tier, not on %q", t.text)
		}
		levels = append(levels, specLevel{t.kind, t.counts})
	}
	levels = normalize(levels)

	var seen [numKinds]bool
	last := Machine
	ordered := true
	for _, l := range slices.Concat(fabric, levels) {
		if seen[l.kind] {
			return nil, fmt.Errorf("topology: kind %v appears twice", l.kind)
		}
		seen[l.kind] = true
		ordered = ordered && l.kind > last
		last = l.kind
	}
	switch {
	case !ordered:
		return nil, fmt.Errorf("topology: kinds must appear in root-to-leaf order (machine, pod, rack, cluster, group, pack, numa, l3, l2, l1, core, pu)")
	case seen[Rack] && !seen[Cluster]:
		return nil, fmt.Errorf("topology: a rack tier requires a node (cluster) tier below it, as in %q", "rack:2 node:4 pack:2 core:8")
	case seen[Pod] && !seen[Rack]:
		return nil, fmt.Errorf("topology: a pod tier requires a rack tier below it, as in %q", "pod:2 rack:2 node:2 pack:2 core:8")
	}
	return levels, nil
}

// specToken is one "name:value" token of a spec.
type specToken struct {
	text string // as written
	name string // lower-cased kind or shape name
	kind Kind   // unset on a shape token
	// counts is the token's count list; nil on a shape token and on braces
	// without counts ("node:{...}").
	counts []int
	shape  *FabricShape // torus and dragonfly tokens only
	// members are the "|"-separated contents of the token's brace block,
	// nil without one.
	members []string
}

// opensNodeTier reports whether tokens[i], the first token after the pod
// and rack tiers, is the cluster-node tier: "cluster" always; "node" —
// elsewhere a NUMA level — when it carries a brace block, follows a pod or
// rack tier, or precedes a level above the NUMA tier (a NUMA level above
// groups or packages would be ill-ordered, so the reading is unambiguous).
func opensNodeTier(tokens []specToken, i int) bool {
	t := tokens[i]
	if t.kind == Cluster {
		return true
	}
	return t.name == "node" &&
		(t.members != nil || i > 0 || i+1 < len(tokens) && tokens[i+1].kind < NUMANode)
}

// tokenize splits a spec on whitespace, keeping brace blocks (which may
// contain spaces) attached to their token, and parses every token.
func tokenize(spec string) ([]specToken, error) {
	var tokens []specToken
	depth, start := 0, -1
	for i, r := range spec + " " { // the trailing space ends the last token
		switch {
		case r == '{':
			depth++
		case r == '}':
			if depth--; depth < 0 {
				return nil, fmt.Errorf("topology: unbalanced %q in spec", "}")
			}
		case depth == 0 && unicode.IsSpace(r):
			if start >= 0 {
				t, err := parseToken(spec[start:i])
				if err != nil {
					return nil, err
				}
				tokens = append(tokens, t)
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if depth != 0 {
		return nil, fmt.Errorf("topology: unbalanced %q in spec", "{")
	}
	return tokens, nil
}

// parseToken parses one token: "kind:c0,c1,...", a torus or dragonfly shape,
// either optionally followed by a "{member | member}" block.
func parseToken(text string) (specToken, error) {
	name, val, ok := strings.Cut(text, ":")
	if !ok {
		return specToken{}, fmt.Errorf("topology: token %q is not of the form kind:count", text)
	}
	t := specToken{text: text, name: strings.ToLower(name)}
	if open := strings.IndexByte(val, '{'); open >= 0 {
		if !strings.HasSuffix(val, "}") {
			return t, fmt.Errorf("topology: malformed brace block in token %q", text)
		}
		t.members = strings.Split(val[open+1:len(val)-1], "|")
		for _, m := range t.members {
			if strings.TrimSpace(m) == "" {
				return t, fmt.Errorf("topology: empty member spec in token %q", text)
			}
		}
		val = val[:open]
	}
	if t.name == "torus" || t.name == "dragonfly" {
		var err error
		t.shape, err = parseFabricShape(t.name, val)
		return t, err
	}
	if t.kind, ok = kindTokens[t.name]; !ok {
		return t, fmt.Errorf("topology: unknown object kind %q", name)
	}
	if t.kind == Machine {
		return t, fmt.Errorf("topology: the machine root is implicit and must not appear in the spec")
	}
	if val == "" && t.members != nil {
		return t, nil
	}
	for _, cs := range strings.Split(val, ",") {
		n, err := strconv.Atoi(cs)
		if err != nil || n <= 0 {
			return t, fmt.Errorf("topology: invalid count in token %q", text)
		}
		if n > maxSpecObjects {
			return t, errTooLarge
		}
		t.counts = append(t.counts, n)
	}
	return t, nil
}
