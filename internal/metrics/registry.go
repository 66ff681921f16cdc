package metrics

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add adds n to the count.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a value that goes up and down.
type Gauge struct{ v atomic.Int64 }

// Add adds n (which may be negative) to the value.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Store sets the value.
func (g *Gauge) Store(n int64) { g.v.Store(n) }

// Load returns the value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry holds metric families in declaration order and renders them
// as one Prometheus text exposition (version 0.0.4). Each family is
// declared once, with its name and help string, by one of the methods
// below; updates never take the registry's lock.
type Registry struct {
	mu       sync.Mutex // guards families and hooks; serializes scrapes
	families []family
	hooks    []func()
}

// family is one declared family: its HELP/TYPE header and a func that
// appends its sample lines.
type family struct {
	name, help, typ string
	samples         func(b *bytes.Buffer)
}

func (r *Registry) add(name, help, typ string, samples func(b *bytes.Buffer)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.families {
		if f.name == name {
			panic("metrics: family " + name + " declared twice")
		}
	}
	r.families = append(r.families, family{name, help, typ, samples})
}

// Counter declares a counter family.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, help, c.Load)
	return c
}

// Gauge declares a gauge family.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(name, help, g.Load)
	return g
}

// CounterFunc declares a counter family whose value is owned elsewhere:
// read is called once per scrape.
func (r *Registry) CounterFunc(name, help string, read func() int64) {
	r.add(name, help, "counter", func(b *bytes.Buffer) { fmt.Fprintf(b, "%s %d\n", name, read()) })
}

// GaugeFunc declares a gauge family whose value is owned elsewhere:
// read is called once per scrape.
func (r *Registry) GaugeFunc(name, help string, read func() int64) {
	r.add(name, help, "gauge", func(b *bytes.Buffer) { fmt.Fprintf(b, "%s %d\n", name, read()) })
}

// Histogram declares a histogram family over the given ascending,
// finite upper bounds (+Inf is implicit). It panics on an invalid
// layout: bucket bounds are wiring, not runtime input.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := newHistogram(name, bounds)
	r.add(name, help, "histogram", h.writeSamples)
	return h
}

// BuildInfo declares the conventional build-info gauge: constant 1, with
// the build's version ("dev" when empty) and Go runtime as labels.
func (r *Registry) BuildInfo(name, help, version string) {
	if version == "" {
		version = "dev"
	}
	line := fmt.Sprintf("%s{version=\"%s\",go_version=\"%s\"} 1\n",
		name, labelEscaper.Replace(version), labelEscaper.Replace(runtime.Version()))
	r.add(name, help, "gauge", func(b *bytes.Buffer) { b.WriteString(line) })
}

// OnScrape registers f to run at the start of every scrape, before any
// family is rendered. Scrapes are serialized, so func families can read
// one snapshot that f takes instead of each taking its own.
func (r *Registry) OnScrape(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, f)
}

// WritePrometheus renders every family to w. The exposition is built
// under the registry's lock and written after it is released, so a slow
// reader holds up no other scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b bytes.Buffer
	r.mu.Lock()
	for _, f := range r.hooks {
		f()
	}
	for _, f := range r.families {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.samples(&b)
	}
	r.mu.Unlock()
	_, err := w.Write(b.Bytes())
	return err
}

// labelEscaper escapes a label value per the exposition format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
