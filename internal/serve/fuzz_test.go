package serve_test

import (
	"bytes"
	"testing"

	"spear/internal/serve"
)

// FuzzLoadRunLog feeds arbitrary documents to LoadRunLog. It must never
// panic, and any log it accepts must reach a fixed point after one
// Marshal: Marshal→LoadRunLog→Marshal gives the same bytes.
func FuzzLoadRunLog(f *testing.F) {
	cfg := testConfig(3)
	cfg.Horizon = 40
	cfg.DumpSchedules = true
	data, err := mustRun(f, cfg).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"config":{"seed":1,"horizonSlots":5},"events":[{"kind":"arrive"}],"summary":{}}`))
	f.Add([]byte(`{"events":[{"schedule":{"format":2,"placements":[{"task":0,"start":3,"machine":1}],"elapsedNanos":9}}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`nope`))

	f.Fuzz(func(t *testing.T, doc []byte) {
		log, err := serve.LoadRunLog(bytes.NewReader(doc))
		if err != nil {
			return
		}
		first, err := log.Marshal()
		if err != nil {
			t.Fatalf("Marshal of an accepted log: %v", err)
		}
		again, err := serve.LoadRunLog(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("reloading a marshalled log: %v", err)
		}
		second, err := again.Marshal()
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("Marshal→LoadRunLog→Marshal changed the bytes:\n%s\n---\n%s", first, second)
		}
	})
}
