package vec

// Cycles is a fixed permutation of an N-element window, stored as the
// cycle walks that apply it in place (see NewCycles). Walk lists every
// cycle of length ≥ 2 one after another, each from its leader s: the
// element at Walk[t+1] moves to Walk[t], and the saved element of s
// moves to the cycle's last position. Ends[c] is the index in Walk one
// past cycle c. Both hold uint16, so N is below 1<<16.
type Cycles struct {
	N    int
	Walk []uint16
	Ends []uint16
}

// NewCycles decomposes the permutation src of a window of len(src)
// elements — after the walks, position j holds the element that was at
// src[j] — into its cycle walks. src must be a permutation of
// 0..len(src)-1.
func NewCycles(src []int) *Cycles {
	n := len(src)
	if n >= 1<<16 {
		panic("vec: cycle table of 1<<16 or more positions")
	}
	c := &Cycles{N: n}
	seen := make([]bool, n)
	for s := range src {
		if seen[s] || src[s] == s {
			continue
		}
		for j := s; !seen[j]; j = src[j] {
			seen[j] = true
			c.Walk = append(c.Walk, uint16(j))
		}
		c.Ends = append(c.Ends, uint16(len(c.Walk)))
	}
	return c
}

// applyCycles runs the walks of c over s, one move per displaced
// element and one saved element per cycle.
func applyCycles[T any](s []T, c *Cycles) {
	s = s[:c.N]
	walk := c.Walk
	start := 0
	for _, e := range c.Ends {
		cyc := walk[start:e]
		t := s[cyc[0]]
		for k := 1; k < len(cyc); k++ {
			s[cyc[k-1]] = s[cyc[k]]
		}
		s[cyc[len(cyc)-1]] = t
		start = int(e)
	}
}
