package core

import (
	"slices"
	"testing"

	"pools/internal/policy"
)

// fourOf steals four elements of a victim (all of them below four) and,
// when race is set, runs it first, under the victim's steal lock: a gift
// dropped there lands mid-steal, after the search's stop checks.
type fourOf struct{ race func() }

func (f fourOf) Amount(n, want int) int {
	if f.race != nil {
		f.race()
	}
	return min(n, 4)
}

func (fourOf) Name() string { return "four" }

// give puts g straight into handle id's mailbox, as a directed add does.
func give(p *Pool[int], id int, g gift[int]) {
	p.boxes[id].banked.Add(int64(g.count()))
	p.boxes[id].slot <- g
}

// TestRemoveOutcomes pins what every slow-path outcome of Get and GetN
// returns, leaves in the local segment and records in the stats: a steal
// of four from a victim holding 0..7, a single gift, a batch gift larger
// than max, a gift that races a steal, and an abort.
func TestRemoveOutcomes(t *testing.T) {
	type want struct {
		got      []int
		local    int
		stolen   float64 // ElementsStolen.Sum()
		steals   int64
		received int64 // DirectedReceives
		aborts   int64
	}
	cases := []struct {
		name  string
		fill  bool    // segment 1 holds 0..7
		gift  []int   // preset in handle 0's mailbox (nil: none)
		race  []int   // gift dropped in mid-steal (nil: none)
		calls [3]want // Get, GetN(1), GetN(3)
	}{
		{name: "steal", fill: true, calls: [3]want{
			{got: []int{3}, local: 3, stolen: 4, steals: 1},
			{got: []int{3}, local: 3, stolen: 4, steals: 1},
			{got: []int{3, 2, 1}, local: 1, stolen: 4, steals: 1},
		}},
		{name: "single-gift", gift: []int{42}, calls: [3]want{
			{got: []int{42}, local: 0, stolen: 1, steals: 1, received: 1},
			{got: []int{42}, local: 0, stolen: 1, steals: 1, received: 1},
			{got: []int{42}, local: 0, stolen: 1, steals: 1, received: 1},
		}},
		{name: "batch-gift", gift: []int{10, 11, 12, 13, 14}, calls: [3]want{
			{got: []int{10}, local: 4, stolen: 5, steals: 1, received: 5},
			{got: []int{10}, local: 4, stolen: 5, steals: 1, received: 5},
			{got: []int{10, 11, 12}, local: 2, stolen: 5, steals: 1, received: 5},
		}},
		{name: "gift-racing-steal", fill: true, race: []int{90, 91}, calls: [3]want{
			{got: []int{3}, local: 5, stolen: 4, steals: 1, received: 2},
			{got: []int{3}, local: 5, stolen: 4, steals: 1, received: 2},
			{got: []int{3, 91, 90}, local: 3, stolen: 4, steals: 1, received: 2},
		}},
		{name: "abort", calls: [3]want{
			{aborts: 1}, {aborts: 1}, {aborts: 1},
		}},
	}
	for _, c := range cases {
		for i, call := range []string{"Get", "GetN(1)", "GetN(3)"} {
			t.Run(c.name+"/"+call, func(t *testing.T) {
				w := c.calls[i]
				var p *Pool[int]
				steal := fourOf{}
				if c.race != nil {
					steal.race = func() {
						if len(p.boxes[0].slot) == 0 {
							give(p, 0, gift[int]{batch: slices.Clone(c.race)})
						}
					}
				}
				p = newTestPool(t, Options{Segments: 2, CollectStats: true,
					Policies: policy.Set{Steal: steal, Place: policy.GiftAll{}}})
				h := p.Handle(0)
				if c.fill {
					for v := range 8 {
						p.Handle(1).Put(v)
					}
				}
				switch {
				case len(c.gift) == 1:
					give(p, 0, gift[int]{one: c.gift[0]})
				case c.gift != nil:
					give(p, 0, gift[int]{batch: slices.Clone(c.gift)})
				}

				var got []int
				if i == 0 {
					if v, ok := h.Get(); ok {
						got = []int{v}
					}
				} else {
					got = h.GetN([]int{1, 3}[i-1])
				}

				if !slices.Equal(got, w.got) {
					t.Errorf("returned %v, want %v", got, w.got)
				}
				if n := p.SegmentLen(0); n != w.local {
					t.Errorf("local segment holds %d, want %d", n, w.local)
				}
				st := h.Stats()
				var removes, batch int64 = int64(len(w.got)), 0
				if i > 0 && w.got != nil {
					batch = 1
				}
				calls := int64(0)
				if w.got != nil {
					calls = 1
				}
				for _, f := range []struct {
					name      string
					got, want int64
				}{
					{"Removes", st.Removes, removes},
					{"RemoveCalls", st.RemoveCalls, calls},
					{"BatchRemoves", st.BatchRemoves, batch},
					{"Steals", st.Steals, w.steals},
					{"DirectedReceives", st.DirectedReceives, w.received},
					{"Aborts", st.Aborts, w.aborts},
				} {
					if f.got != f.want {
						t.Errorf("%s = %d, want %d", f.name, f.got, f.want)
					}
				}
				if s := st.ElementsStolen.Sum(); s != w.stolen {
					t.Errorf("ElementsStolen.Sum() = %v, want %v", s, w.stolen)
				}
			})
		}
	}
}
