package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"clustervp/internal/runner"
	"clustervp/internal/service"
	"clustervp/internal/stats"
)

// TestReleaseRace hits jobs with status, events and trace GETs while
// they finish and release what only a live job uses, beside streamed
// submits of memo hits and fresh simulations, on a single box and on a
// 2-replica fleet. Run it under -race.
func TestReleaseRace(t *testing.T) {
	run := func(j runner.Job) (stats.Results, error) {
		time.Sleep(time.Duration(j.Seed%3) * 100 * time.Microsecond)
		return stats.Results{Benchmark: j.Kernel, Cycles: int64(j.Seed) + 1, Instructions: 2}, nil
	}
	box, err := service.New(service.Options{Workers: 2, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	boxTS := httptest.NewServer(box.Handler())
	t.Cleanup(func() { boxTS.Close(); box.Close() })
	tf := newTestFleet(t, 2, func(int) func(runner.Job) (stats.Results, error) { return run }, nil)
	fleetTS := httptest.NewServer(tf.co.Handler())
	t.Cleanup(fleetTS.Close)

	for _, d := range []deployment{{"box", boxTS.URL}, {"fleet-2", fleetTS.URL}} {
		t.Run(d.name, func(t *testing.T) { hammerReleases(t, d.url) })
	}
}

// hammerReleases runs streamed submitters and readers of the jobs they
// create against one deployment until every submitter is done.
func hammerReleases(t *testing.T, base string) {
	const submitters, readers, perSubmitter = 3, 3, 30
	ids := make(chan string, submitters*perSubmitter)
	var subs, reads sync.WaitGroup
	for s := range submitters {
		subs.Add(1)
		go func() {
			defer subs.Done()
			for i := range perSubmitter {
				// Seeds repeat across submitters: memo hits beside
				// fresh simulations.
				body := fmt.Sprintf(`{"machine":{"clusters":"2"},"kernel":"rawcaudio","seed":%d}`, (s*perSubmitter+i)%11+1)
				id, err := streamedSubmit(base, body, ids)
				if err != nil {
					t.Errorf("streamed submit %s: %v", id, err)
					return
				}
			}
		}()
	}
	var mu sync.Mutex
	var seen []string
	done := make(chan struct{})
	for r := range readers {
		reads.Add(1)
		go func() {
			defer reads.Done()
			for n := 0; ; n++ {
				select {
				case id := <-ids:
					mu.Lock()
					seen = append(seen, id)
					mu.Unlock()
				case <-done:
					return
				default:
				}
				mu.Lock()
				var id string
				if len(seen) > 0 {
					id = seen[(n*7+r)%len(seen)]
				}
				mu.Unlock()
				if id == "" {
					time.Sleep(100 * time.Microsecond)
					continue
				}
				for _, path := range []string{"", "/events", "/trace"} {
					code, body, err := get(base + "/v1/jobs/" + id + path)
					if err != nil || code != http.StatusOK {
						t.Errorf("GET %s%s: %d %v %.200s", id, path, code, err, body)
						return
					}
				}
			}
		}()
	}
	subs.Wait()
	close(done)
	reads.Wait()
	mu.Lock()
	defer mu.Unlock()
	for _, id := range seen {
		code, body, err := get(base + "/v1/jobs/" + id + "/events")
		if err != nil || code != http.StatusOK {
			t.Fatalf("events of %s: %d %v", id, code, err)
		}
		var ev service.Event
		if err := json.Unmarshal(bytes.TrimSpace(body), &ev); err != nil || ev.State != service.StateDone || ev.Job == nil || ev.Job.Results == nil {
			t.Errorf("a finished job's events are not one terminal line with its results: %v %s", err, body)
		}
	}
}

// streamedSubmit posts body as an NDJSON-streamed submit, sends the job
// ID on ids as soon as the first line names it, and requires the stream
// to end on a done line that carries the job's results.
func streamedSubmit(base, body string, ids chan<- string) (string, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Accept", service.NDJSONType)
	resp, err := raceClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		data, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	var id string
	var last service.Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		last = service.Event{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			return id, err
		}
		if id == "" {
			if last.Job == nil {
				return "", fmt.Errorf("first line names no job: %s", sc.Bytes())
			}
			id = last.Job.ID
			ids <- id
		}
	}
	if err := sc.Err(); err != nil {
		return id, err
	}
	if last.State != service.StateDone || last.Job == nil || last.Job.Results == nil {
		return id, fmt.Errorf("stream ended on %+v", last)
	}
	return id, nil
}

// raceClient bounds every request, so a job left locked by a fault
// fails the test instead of hanging it.
var raceClient = &http.Client{Timeout: 30 * time.Second}

func get(url string) (int, []byte, error) {
	resp, err := raceClient.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
