// Package memory models the tree-shaped memory hierarchies of Section 4.
// Every node is a hardware component able to store data; edges represent the
// ability to transfer data between adjacent levels and carry the two cost
// metrics of the paper: InitCom (initiating a transfer: a disk seek, a flash
// erase) and UnitTr (transferring one byte).
package memory

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Kind describes the physical nature of a node; it selects the simulator
// behaviour (seeking for disks, erase blocks for flash, none for RAM/cache).
type Kind string

const (
	RAM   Kind = "ram"
	HDD   Kind = "hdd"
	Flash Kind = "flash"
	Cache Kind = "cache"
)

// Node is one level of the hierarchy with the properties of Figure 3.
type Node struct {
	Name     string `json:"name"`
	Kind     Kind   `json:"kind"`
	Size     int64  `json:"size"`               // bytes; must be set for all nodes
	PageSize int64  `json:"pagesize,omitempty"` // access granularity; 1 = byte-addressable
	MaxSeqR  int64  `json:"maxSeqR,omitempty"`  // max bytes per read request (0 = unlimited)
	MaxSeqW  int64  `json:"maxSeqW,omitempty"`  // max bytes per write request (flash: erase block)

	Children []*Node `json:"children,omitempty"`

	// Edge costs to the parent, one per direction, in seconds (InitCom)
	// and seconds per byte (UnitTr). Following the paper, costs the
	// developer chooses to ignore are simply zero.
	InitComUp   float64 `json:"initComUp,omitempty"`   // this -> parent
	InitComDown float64 `json:"initComDown,omitempty"` // parent -> this
	UnitTrUp    float64 `json:"unitTrUp,omitempty"`
	UnitTrDown  float64 `json:"unitTrDown,omitempty"`
}

// Hierarchy is a validated memory hierarchy. The root is the fastest level
// (where the single processing unit reads its data); leaves are storage
// devices.
type Hierarchy struct {
	Root  *Node
	nodes map[string]*Node
	paren map[string]*Node
}

// New validates the tree and returns a Hierarchy.
func New(root *Node) (*Hierarchy, error) {
	h := &Hierarchy{Root: root, nodes: map[string]*Node{}, paren: map[string]*Node{}}
	var walk func(n, parent *Node) error
	walk = func(n, parent *Node) error {
		if n.Name == "" {
			return fmt.Errorf("memory: node without a name")
		}
		if _, dup := h.nodes[n.Name]; dup {
			return fmt.Errorf("memory: duplicate node name %q", n.Name)
		}
		if n.Size <= 0 {
			return fmt.Errorf("memory: node %q must have a positive size", n.Name)
		}
		if n.PageSize < 0 || n.MaxSeqR < 0 || n.MaxSeqW < 0 {
			return fmt.Errorf("memory: node %q has negative properties", n.Name)
		}
		h.nodes[n.Name] = n
		if parent != nil {
			h.paren[n.Name] = parent
		}
		for _, c := range n.Children {
			if err := walk(c, n); err != nil {
				return err
			}
		}
		return nil
	}
	if root == nil {
		return nil, fmt.Errorf("memory: nil root")
	}
	if err := walk(root, nil); err != nil {
		return nil, err
	}
	return h, nil
}

// Node returns the named node, or nil.
func (h *Hierarchy) Node(name string) *Node { return h.nodes[name] }

// Parent returns the parent of the named node (nil for the root).
func (h *Hierarchy) Parent(name string) *Node { return h.paren[name] }

// RAMBytes returns the size of the hierarchy's RAM level (the node named
// "ram", else the root): the executor's working-memory budget.
func (h *Hierarchy) RAMBytes() int64 {
	if n := h.Node("ram"); n != nil {
		return n.Size
	}
	return h.Root.Size
}

// Names lists node names in preorder.
func (h *Hierarchy) Names() []string {
	var out []string
	var walk func(n *Node)
	walk = func(n *Node) {
		out = append(out, n.Name)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(h.Root)
	return out
}

// InitCom returns the transfer-initiation cost in seconds for moving data
// between the adjacent nodes from -> to (Figure 3 edge property). Requesting
// a non-adjacent pair is a programming error and panics.
func (h *Hierarchy) InitCom(from, to string) float64 {
	up, node := h.edge(from, to)
	if up {
		return node.InitComUp
	}
	return node.InitComDown
}

// UnitTr returns the per-byte transfer cost in seconds between adjacent
// nodes from -> to.
func (h *Hierarchy) UnitTr(from, to string) float64 {
	up, node := h.edge(from, to)
	if up {
		return node.UnitTrUp
	}
	return node.UnitTrDown
}

// edge resolves an adjacent pair: returns (true, child) when from is the
// child (upward transfer), (false, child) when from is the parent.
func (h *Hierarchy) edge(from, to string) (bool, *Node) {
	if p := h.paren[from]; p != nil && p.Name == to {
		return true, h.nodes[from]
	}
	if p := h.paren[to]; p != nil && p.Name == from {
		return false, h.nodes[to]
	}
	panic(fmt.Sprintf("memory: %q and %q are not adjacent", from, to))
}

// PathToRoot returns the node names from the given node up to the root,
// inclusive.
func (h *Hierarchy) PathToRoot(name string) ([]string, error) {
	n, ok := h.nodes[name]
	if !ok {
		return nil, fmt.Errorf("memory: unknown node %q", name)
	}
	var out []string
	for n != nil {
		out = append(out, n.Name)
		n = h.paren[n.Name]
	}
	return out, nil
}

// MarshalJSON / load helpers.
func (h *Hierarchy) MarshalJSON() ([]byte, error) { return json.Marshal(h.Root) }

// FromJSON parses a hierarchy description.
func FromJSON(data []byte) (*Hierarchy, error) {
	var root Node
	if err := json.Unmarshal(data, &root); err != nil {
		return nil, fmt.Errorf("memory: %w", err)
	}
	return New(&root)
}

// String renders the tree for diagnostics.
func (h *Hierarchy) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(&b, "%s%s (%s, size=%d", strings.Repeat("  ", depth), n.Name, n.Kind, n.Size)
		if n.PageSize > 0 {
			fmt.Fprintf(&b, ", page=%d", n.PageSize)
		}
		if n.MaxSeqW > 0 {
			fmt.Fprintf(&b, ", maxSeqW=%d", n.MaxSeqW)
		}
		b.WriteString(")\n")
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(h.Root, 0)
	return b.String()
}
