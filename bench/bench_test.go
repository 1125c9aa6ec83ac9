package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks against.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// tinySizes shrinks every workload to well under a second of timing.
func tinySizes() sizes {
	return sizes{timed: 300 * time.Millisecond, setupReps: 1, requests: 60, probeKernels: 2, probeTasks: 2}
}

// checkPrinted writes rep as the command would and checks that every
// metric in want appears as "workload metric value unit" with its unit,
// and that the JSON line reports no failure.
func checkPrinted(t *testing.T, rep *report, want []specMetric) {
	t.Helper()
	var out bytes.Buffer
	if err := rep.write(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	printed := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		if f := strings.Fields(l); len(f) >= 4 && f[1] != "#" {
			printed[f[1]] = f[3]
		}
	}
	for _, m := range want {
		if unit, ok := printed[m.Name]; !ok || unit != m.Unit {
			t.Errorf("metric %s: printed unit %q (present %t), want %q", m.Name, unit, ok, m.Unit)
		}
	}
	var last report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the JSON result: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 || len(last.Metrics) != len(want) {
		t.Errorf("result line: correct=%t attempted=%d failed=%d metrics=%d (want %d)",
			last.Correct, last.Attempted, last.Failed, len(last.Metrics), len(want))
	}
}

func TestSpecMatchesTheCommand(t *testing.T) {
	s := readSpec(t)
	if s.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, the command's default -seconds %d", s.RunSeconds, defaultSeconds)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmokeEveryWorkload runs each workload at a tiny size, untraced and
// traced, and checks the printed metrics, the verdict and the Chrome
// trace.
func TestSmokeEveryWorkload(t *testing.T) {
	s := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 2, seconds: 0.3, workdir: t.TempDir(),
				chrome: filepath.Join(t.TempDir(), "trace.json")}
			plain, err := runOne(o, tinySizes())
			if err != nil {
				t.Fatal(err)
			}
			checkPrinted(t, plain, s.EndToEnd)

			o.trace = true
			traced, err := runOne(o, tinySizes())
			if err != nil {
				t.Fatal(err)
			}
			addOverhead(traced, plain)
			checkPrinted(t, traced, s.PerLayer)
			if d := traced.Metrics["bench.spans_dropped"].Value; d != 0 {
				t.Errorf("%v spans dropped", d)
			}
			b, err := os.ReadFile(o.chrome)
			if err != nil {
				t.Fatal(err)
			}
			var chrome struct {
				TraceEvents []struct {
					Name  string `json:"name"`
					Phase string `json:"ph"`
				} `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &chrome); err != nil {
				t.Fatalf("Chrome trace does not parse: %v", err)
			}
			if len(chrome.TraceEvents) == 0 {
				t.Fatal("Chrome trace has no events")
			}
		})
	}
}
