// Package dse is a small design-space-exploration driver over the
// system-level models — the activity the paper's abstract RTOS model
// exists to accelerate ("early and rapid design space exploration"). A
// design space is a grid of named axes; every configuration is evaluated
// by a user function returning a cost metric (and optional auxiliary
// metrics), and the results come back ranked.
package dse

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/runner"
)

// Config is one point of the design space: a value per axis.
type Config map[string]string

// Key returns a canonical, order-independent string form. Axis names
// and values are escaped so the "=" and " " separators cannot be forged
// from inside a value: {"a": "1 b=2"} and {"a": "1", "b": "2"} key
// differently. Plain alphanumeric axes render unescaped, so keys stay
// readable in tables and logs.
func (c Config) Key() string {
	keys := make([]string, 0, len(c))
	size := 0
	for k, v := range c {
		keys = append(keys, k)
		size += len(k) + len(v) + 2
	}
	slices.Sort(keys)
	var b strings.Builder
	b.Grow(size)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(escapeKeyPart(k))
		b.WriteByte('=')
		b.WriteString(escapeKeyPart(c[k]))
	}
	return b.String()
}

// escapeKeyPart percent-escapes the characters that carry structure in a
// Key ("=", " ", "%") plus control characters; everything else passes
// through untouched.
func escapeKeyPart(s string) string {
	clean := true
	for i := 0; i < len(s); i++ {
		if keyEscapeNeeded(s[i]) {
			clean = false
			break
		}
	}
	if clean {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 6)
	for i := 0; i < len(s); i++ {
		if keyEscapeNeeded(s[i]) {
			fmt.Fprintf(&b, "%%%02X", s[i])
		} else {
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

func keyEscapeNeeded(c byte) bool {
	return c == '%' || c == '=' || c == ' ' || c < 0x20 || c == 0x7f
}

// Axis is one dimension of the space.
type Axis struct {
	Name   string
	Values []string
}

// Grid enumerates the cartesian product of the axes, first axis slowest.
// Configuration i takes from each axis the digit of i in the mixed radix
// of the axis lengths; when two axes share a name, the later one wins.
func Grid(axes []Axis) []Config {
	n := 1
	for _, a := range axes {
		n *= len(a.Values)
	}
	if n == 0 {
		return nil
	}
	out := make([]Config, n)
	for i := range out {
		c := make(Config, len(axes))
		stride := n
		for _, a := range axes {
			stride /= len(a.Values)
			c[a.Name] = a.Values[i/stride%len(a.Values)]
		}
		out[i] = c
	}
	return out
}

// Point is an evaluated configuration.
type Point struct {
	Config Config
	Cost   float64
	Aux    map[string]float64
	Err    error

	// Front is the point's Pareto front rank (1 = non-dominated) when the
	// exploration ran with WithObjectives; 0 otherwise (scalar ranking, or
	// a failed evaluation).
	Front int
}

// EvalFunc evaluates one configuration: lower cost is better.
type EvalFunc func(c Config) (cost float64, aux map[string]float64, err error)

// Option configures an exploration.
type Option func(*exploreOptions)

type exploreOptions struct {
	jobs       int
	objectives []string
	cache      *Cache
	keyFn      func(Config) string
}

// WithJobs sets the number of configurations evaluated concurrently
// (default runtime.NumCPU(); 1 = sequential). Each evaluation must build
// its own simulation kernel, which every model-running EvalFunc in this
// repository does.
func WithJobs(n int) Option { return func(o *exploreOptions) { o.jobs = n } }

// WithObjectives switches the ranking from scalar cost to Pareto
// dominance over the named metrics, all minimized: "cost" names the
// primary Cost, anything else an Aux metric (a point missing the metric
// counts as +Inf — dominated by every point that has it). Points come
// back grouped by front (Point.Front, 1 = non-dominated) and ordered by
// cost within a front; a single objective reduces to the scalar ranking.
func WithObjectives(metrics ...string) Option {
	return func(o *exploreOptions) { o.objectives = metrics }
}

// WithCache memoizes successful evaluations in the cache under
// keyFn(config) (nil keyFn = Config.Key). Re-running an identical sweep
// — same axes, same key function — evaluates nothing and reports 100%
// hits in the cache's Stats. Failed evaluations are not cached, so
// transient errors retry on the next sweep.
func WithCache(cache *Cache, keyFn func(Config) string) Option {
	return func(o *exploreOptions) {
		o.cache = cache
		o.keyFn = keyFn
	}
}

// Explore evaluates every configuration of the grid and returns the
// points sorted by ascending cost; failed evaluations sort last and carry
// their error. Evaluations run concurrently on a bounded worker pool
// (see WithJobs); results are collected in grid order before the stable
// sort, so the ranking is deterministic and identical to a sequential
// exploration. A panicking evaluation becomes that point's Err instead of
// aborting the sweep.
func Explore(axes []Axis, eval EvalFunc, opts ...Option) []Point {
	o := exploreOptions{}
	for _, opt := range opts {
		opt(&o)
	}
	configs := Grid(axes)
	keyFn := o.keyFn
	if keyFn == nil {
		keyFn = Config.Key
	}
	type out struct {
		cost float64
		aux  map[string]float64
	}
	// Each job keys its configuration once, on its own worker, so a
	// costly or panicking key function is parallel and isolated like the
	// evaluation itself.
	results := runner.Map(len(configs), runner.Options{Jobs: o.jobs}, func(i int) (out, error) {
		var key string
		if o.cache != nil {
			key = keyFn(configs[i])
			if e, ok := o.cache.lookup(key); ok {
				return out{cost: e.Cost, aux: e.Aux}, nil
			}
		}
		cost, aux, err := eval(configs[i])
		if o.cache != nil && err == nil {
			o.cache.store(key, cacheEntry{Cost: cost, Aux: aux})
		}
		return out{cost: cost, aux: aux}, err
	})
	points := make([]Point, 0, len(configs))
	for i, c := range configs {
		r := results[i]
		points = append(points, Point{Config: c, Cost: r.Value.cost, Aux: r.Value.aux, Err: r.Err})
	}
	if len(o.objectives) > 0 {
		assignFronts(points, o.objectives)
		sort.SliceStable(points, func(i, j int) bool {
			if (points[i].Err == nil) != (points[j].Err == nil) {
				return points[i].Err == nil
			}
			if points[i].Front != points[j].Front {
				return points[i].Front < points[j].Front
			}
			return points[i].Cost < points[j].Cost
		})
		return points
	}
	sort.SliceStable(points, func(i, j int) bool {
		if (points[i].Err == nil) != (points[j].Err == nil) {
			return points[i].Err == nil
		}
		return points[i].Cost < points[j].Cost
	})
	return points
}

// Best returns the lowest-cost successful point.
func Best(points []Point) (Point, error) {
	for _, p := range points {
		if p.Err == nil {
			return p, nil
		}
	}
	return Point{}, fmt.Errorf("dse: no configuration evaluated successfully")
}

// Table renders the ranked points, one line each, with the cost metric
// named unit.
func Table(points []Point, unit string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s  %-44s %14s\n", "rank", "configuration", unit)
	for i, p := range points {
		if p.Err != nil {
			fmt.Fprintf(&b, "%4d  %-44s %14s (%v)\n", i+1, p.Config.Key(), "error", p.Err)
			continue
		}
		fmt.Fprintf(&b, "%4d  %-44s %14.3f\n", i+1, p.Config.Key(), p.Cost)
	}
	return b.String()
}
