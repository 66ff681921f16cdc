package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json the self-check reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readManifest finds BENCHMARK.json from the repository root (where the
// driver runs) or from this directory (where go test runs).
func readManifest() (*manifest, error) {
	var raw []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(raw, m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return m, nil
}

// selfcheckRuns is how many runs make one set of a workload: the ten the
// driver's acceptance test takes its quartiles over.
const selfcheckRuns = 10

// checkedRun is one child invocation's seed and result.
type checkedRun struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Report   *report `json:"report"`
}

// runSelfcheck does what the driver does to accept the benchmark: two
// sets of runs of the same code, each run a fresh process with its own
// seed. For every workload and end-to-end metric it prints both medians,
// each set's quartile spread, how much worse the second median is, and
// the bound; it returns non-zero when a spread (setup_s excepted) or a
// drift exceeds the bound, or a run is incorrect.
func runSelfcheck(seconds float64, resultsPrefix string) int {
	m, err := readManifest()
	if err != nil {
		fatalf("%v", err)
	}
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	sets := [2][]checkedRun{}
	for set := range sets {
		for _, wl := range m.Workloads {
			for i := 0; i < selfcheckRuns; i++ {
				seed := int64(1000 + set*selfcheckRuns + i)
				rep, err := runChild(self, wl.Name, seed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "selfcheck: %s seed %d: %v\n", wl.Name, seed, err)
					return 1
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %c %s seed %d done\n", 'a'+set, wl.Name, seed)
				sets[set] = append(sets[set], checkedRun{wl.Name, seed, rep})
			}
		}
		if resultsPrefix != "" {
			doc := map[string]any{"seconds": seconds, "runs": sets[set]}
			buf, err := json.MarshalIndent(doc, "", " ")
			if err == nil {
				err = os.WriteFile(fmt.Sprintf("%s-%c.json", resultsPrefix, 'a'+set), append(buf, '\n'), 0o644)
			}
			if err != nil {
				fatalf("write results: %v", err)
			}
		}
	}

	values := func(set int, workload, metric string) []float64 {
		var xs []float64
		for _, r := range sets[set] {
			if r.Workload == workload {
				xs = append(xs, r.Report.Metrics[metric].Value)
			}
		}
		return xs
	}
	bad := 0
	fmt.Printf("%-12s %-22s %12s %8s %12s %8s %8s %6s\n", "workload", "metric", "median a", "spread", "median b", "spread", "drift", "bound")
	for _, wl := range m.Workloads {
		for _, e := range m.EndToEnd {
			a, b := values(0, wl.Name, e.Name), values(1, wl.Name, e.Name)
			ma, mb := median(a), median(b)
			sa, sb := quartileSpread(a), quartileSpread(b)
			// drift is how much worse the second set's median is.
			drift := ratio(mb-ma, ma)
			if e.Better == "higher" {
				drift = -drift
			}
			verdict := ""
			if e.Name != "setup_s" && (sa > e.Bound || sb > e.Bound) {
				verdict = " SPREAD"
			}
			if drift > e.Bound {
				verdict += " DRIFT"
			}
			if verdict != "" {
				bad++
			}
			fmt.Printf("%-12s %-22s %12.5g %8.4f %12.5g %8.4f %8.4f %6.2f%s\n", wl.Name, e.Name, ma, sa, mb, sb, drift, e.Bound, verdict)
		}
	}
	for set := range sets {
		for _, r := range sets[set] {
			if !r.Report.Correct {
				fmt.Printf("%s seed %d: incorrect (%d of %d failed)\n", r.Workload, r.Seed, r.Report.Failed, r.Report.Attempted)
				bad++
			}
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// runChild runs one workload in a fresh process, as the driver does, and
// decodes the last line of its standard output.
func runChild(self, workload string, seed int64, seconds float64) (*report, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	// An incorrect run exits 1 after printing its report: read the report
	// and let the caller list the run as incorrect. A run that failed
	// another way leaves no report, and what it wrote to standard error
	// says why.
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return nil, err
	}
	last := ""
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	rep := &report{}
	if err := json.Unmarshal([]byte(last), rep); err != nil {
		if exit != nil {
			return nil, fmt.Errorf("%w: %s", exit, strings.TrimSpace(string(exit.Stderr)))
		}
		return nil, fmt.Errorf("last output line is not a report: %w", err)
	}
	return rep, nil
}
