package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"time"

	"stethoscope"
)

// All statement streams derive from the workload seed alone: the same
// seed gives the same texts in the same per-client order.

// newRNG returns the seeded generator of one stream; stream separates
// the clients (and purposes) sharing a seed.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// rounds deals items in seeded shuffled rounds: each round is a
// permutation of items, so every item runs equally often, up to the
// round in progress, whatever the run length.
type rounds struct {
	rng   *rand.Rand
	items []int
	cur   []int
}

func newRounds(rng *rand.Rand, items []int) *rounds {
	return &rounds{rng: rng, items: items}
}

func (r *rounds) next() int {
	if len(r.cur) == 0 {
		r.cur = append(r.cur[:0], r.items...)
		r.rng.Shuffle(len(r.cur), func(i, j int) { r.cur[i], r.cur[j] = r.cur[j], r.cur[i] })
	}
	v := r.cur[0]
	r.cur = r.cur[1:]
	return v
}

// indexes returns 0..n-1.
func indexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// oneLine flattens a statement onto one line, as the wire protocol
// carries it.
func oneLine(sql string) string { return strings.Join(strings.Fields(sql), " ") }

// clientText gives client c its own text of a statement: the statement
// on one line with c+1 spaces after its first word. Byte-distinct texts
// have their own plan-cache entries and never share an execution, while
// the result stays that of the statement, so one reference checks
// every client.
func clientText(sql string, c int) string {
	first, rest, _ := strings.Cut(oneLine(sql), " ")
	return first + strings.Repeat(" ", c+1) + rest
}

// coldTemplates are the TPC-H statements with their predicate constants
// drawn from the seed. Every draw space is far larger than a run's
// statement count, so fresh texts are cheap to find.
var coldTemplates = []func(r *rand.Rand) string{
	func(r *rand.Rand) string { // Q1
		return fmt.Sprintf(`select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty,
				sum(l_extendedprice) as sum_base_price, avg(l_quantity) as avg_qty,
				avg(l_extendedprice) as avg_price, avg(l_discount) as avg_disc, count(*) as count_order
				from lineitem
				where l_shipdate <= date '%s'
				group by l_returnflag, l_linestatus
				order by l_returnflag, l_linestatus`, day(r, 1000, 2400))
	},
	func(r *rand.Rand) string { // Q3
		d := day(r, 900, 1400)
		return fmt.Sprintf(`select l_orderkey, sum(l_extendedprice) as revenue, o_orderdate
				from customer
				join orders on c_custkey = o_custkey
				join lineitem on l_orderkey = o_orderkey
				where c_mktsegment = '%s' and o_orderdate < date '%s' and l_shipdate > date '%s'
				group by l_orderkey, o_orderdate
				order by revenue desc, o_orderdate
				limit 10`, pick(r, segments), d, d)
	},
	func(r *rand.Rand) string { // Q5
		lo := r.IntN(1800)
		return fmt.Sprintf(`select n_name, sum(l_extendedprice) as revenue
				from region
				join nation on n_regionkey = r_regionkey
				join supplier on s_nationkey = n_nationkey
				join lineitem on l_suppkey = s_suppkey
				join orders on o_orderkey = l_orderkey
				where r_name = '%s' and o_orderdate between date '%s' and date '%s'
				group by n_name
				order by revenue desc`, pick(r, regions), date(lo), date(lo+365))
	},
	func(r *rand.Rand) string { // Q6
		lo := r.IntN(2000)
		disc := 0.02 + float64(r.IntN(70))/1000
		return fmt.Sprintf(`select sum(l_extendedprice) as revenue, count(*) as matched
				from lineitem
				where l_shipdate between date '%s' and date '%s'
				and l_discount between %.3f and %.3f and l_quantity < %d`,
			date(lo), date(lo+364), disc-0.01, disc+0.01, 20+r.IntN(11))
	},
	func(r *rand.Rand) string { // Q10
		lo := r.IntN(1800)
		return fmt.Sprintf(`select c_custkey, c_name, sum(l_extendedprice) as revenue, n_name
				from customer
				join orders on o_custkey = c_custkey
				join lineitem on l_orderkey = o_orderkey
				join nation on n_nationkey = c_nationkey
				where l_returnflag = 'R' and o_orderdate between date '%s' and date '%s'
				group by c_custkey, c_name, n_name
				order by revenue desc
				limit 20`, date(lo), date(lo+92))
	},
	func(r *rand.Rand) string { // Q12
		i := r.IntN(len(shipModes))
		j := (i + 1 + r.IntN(len(shipModes)-1)) % len(shipModes)
		lo := r.IntN(2000)
		return fmt.Sprintf(`select l_shipmode, count(*) as line_count
				from orders
				join lineitem on l_orderkey = o_orderkey
				where l_shipmode in ('%s', '%s')
				and l_receiptdate between date '%s' and date '%s'
				and l_commitdate < l_receiptdate and l_shipdate < l_commitdate
				group by l_shipmode
				order by l_shipmode`, shipModes[i], shipModes[j], date(lo), date(lo+364))
	},
	func(r *rand.Rand) string { // Q14
		lo := r.IntN(2300)
		return fmt.Sprintf(`select count(*) as promo_lines, sum(l_extendedprice) as promo_revenue
				from lineitem
				join part on p_partkey = l_partkey
				where p_type like 'PROMO%%'
				and l_shipdate between date '%s' and date '%s'`, date(lo), date(lo+30))
	},
	func(r *rand.Rand) string { // Q19
		q1, q2, q3 := 1+r.IntN(10), 10+r.IntN(10), 20+r.IntN(10)
		return fmt.Sprintf(`select sum(l_extendedprice) as revenue
				from lineitem
				join part on p_partkey = l_partkey
				where (p_brand = '%s' and l_quantity between %d and %d)
				or (p_brand = '%s' and l_quantity between %d and %d)
				or (p_brand = '%s' and l_quantity between %d and %d)`,
			pick(r, brands), q1, q1+10, pick(r, brands), q2, q2+10, pick(r, brands), q3, q3+10)
	},
	func(r *rand.Rand) string { // QX1
		return fmt.Sprintf("select l_tax from lineitem where l_partkey=%d", 1+r.IntN(2000))
	},
	func(r *rand.Rand) string { // QX2
		return fmt.Sprintf(`select l_orderkey, l_partkey, l_suppkey, l_quantity, l_extendedprice, l_discount, l_tax, l_shipdate
				from lineitem where l_quantity > %d and l_discount < %.3f`, 1+r.IntN(49), 0.001*float64(1+r.IntN(100)))
	},
}

var (
	segments  = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	regions   = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	brands    = []string{"Brand#11", "Brand#12", "Brand#23", "Brand#34", "Brand#45", "Brand#55"}
	epoch     = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
)

func pick(r *rand.Rand, opts []string) string { return opts[r.IntN(len(opts))] }

// date renders the day offset from 1992-01-01 as a SQL date literal body.
func date(days int) string { return epoch.AddDate(0, 0, days).Format("2006-01-02") }

// day draws a date between offsets lo and hi.
func day(r *rand.Rand, lo, hi int) string { return date(lo + r.IntN(hi-lo)) }

// coldStream yields compile-cold statements: templates in seeded
// rounds, constants drawn per statement, and no text ever repeated
// within the stream.
type coldStream struct {
	rng   *rand.Rand
	order *rounds
	seen  map[string]bool
}

func newColdStream(seed uint64) *coldStream {
	return &coldStream{
		rng:   newRNG(seed, 0xc01d),
		order: newRounds(newRNG(seed, 0xc01e), indexes(len(coldTemplates))),
		seen:  map[string]bool{},
	}
}

// maxDraws bounds the redraws for one fresh text; reaching it means a
// template's draw space is exhausted, which is a benchmark bug.
const maxDraws = 10000

func (s *coldStream) next() (string, error) {
	t := coldTemplates[s.order.next()]
	for i := 0; i < maxDraws; i++ {
		text := t(s.rng)
		if !s.seen[text] {
			s.seen[text] = true
			return text, nil
		}
	}
	return "", fmt.Errorf("compile-cold: no fresh text after %d draws", maxDraws)
}

// queryIndex returns the position of a TPC-H statement in
// stethoscope.Queries.
func queryIndex(id string) int {
	for i, q := range stethoscope.Queries() {
		if q.ID == id {
			return i
		}
	}
	panic("unknown query " + id)
}
