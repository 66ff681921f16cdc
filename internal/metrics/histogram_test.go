package metrics

import (
	"strings"
	"sync"
	"testing"
)

// render returns r's exposition, failing t if it is not well-formed.
func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition(strings.NewReader(b.String())); err != nil {
		t.Fatalf("own exposition rejected: %v\n%s", err, b.String())
	}
	return b.String()
}

func TestHistogramBuckets(t *testing.T) {
	r := &Registry{}
	h := r.Histogram("test_seconds", "help text", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	out := render(t, r)
	want := []string{
		"# HELP test_seconds help text",
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.1"} 2`, // 0.05 and 0.1 (le is inclusive)
		`test_seconds_bucket{le="1"} 3`,
		`test_seconds_bucket{le="10"} 4`,
		`test_seconds_bucket{le="+Inf"} 5`,
		`test_seconds_sum 102.65`,
		`test_seconds_count 5`,
	}
	for _, w := range want {
		if !strings.Contains(out, w+"\n") {
			t.Fatalf("exposition missing %q:\n%s", w, out)
		}
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := &Registry{}
	h := r.Histogram("c_seconds", "h", DurationBuckets)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(g) * 0.001)
			}
		}(g)
	}
	wg.Wait()
	if out := render(t, r); !strings.Contains(out, "c_seconds_count 8000\n") {
		t.Fatalf("lost observations:\n%s", out)
	}
}

func TestHistogramInvalidBounds(t *testing.T) {
	for _, bounds := range [][]float64{{}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("bounds %v did not panic", bounds)
				}
			}()
			(&Registry{}).Histogram("x", "y", bounds)
		}()
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad name", "9bad 1\n"},
		{"no value", "metric_a\n"},
		{"help after sample", "m 1\n# HELP m h\nm 2\n"},
		{"bad escape", "m{l=\"a\\q\"} 1\n"},
		{"unterminated label", "m{l=\"a} 1\n"},
		{"duplicate label", `m{a="1",a="2"} 1` + "\n"},
		{"non-monotonic le", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\n" + `h_bucket{le="0.5"} 2` + "\n" +
			`h_bucket{le="+Inf"} 3` + "\nh_sum 1\nh_count 3\n"},
		{"non-cumulative", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n"},
		{"missing inf", "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n"},
		{"count mismatch", "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 4` + "\nh_sum 1\nh_count 5\n"},
		{"missing sum", "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 1` + "\nh_count 1\n"},
	}
	for _, c := range cases {
		if err := ValidateExposition(strings.NewReader(c.in)); err == nil {
			t.Fatalf("%s: accepted invalid exposition", c.name)
		}
	}
}

func TestValidateExpositionAccepts(t *testing.T) {
	in := "# HELP m counts things\n# TYPE m counter\nm 42\n" +
		"# freeform comment\n" +
		`g{instance="a b",path="c\\d"} 1.5` + "\n"
	if err := ValidateExposition(strings.NewReader(in)); err != nil {
		t.Fatalf("rejected valid exposition: %v", err)
	}
}
