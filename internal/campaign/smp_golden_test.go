package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/taskset"
)

// smpSet is a multi-CPU task set covering every task shape the global
// scheduler runs: a periodic task with cycles 0 (a daemon until the
// horizon), periodic tasks with a cycle count, and aperiodic tasks with
// and without a start offset (one with a zero-length segment). It
// overloads two CPUs, so tasks are preempted and migrate.
func smpSet(policy, tmodel string, cpus int) string {
	return fmt.Sprintf(`{"policy":%q,"timeModel":%q,"cpus":%d,"horizonMs":20,"tasks":[
		{"name":"fast","periodUs":1000,"wcetUs":600,"prio":1},
		{"name":"mid","periodUs":1500,"wcetUs":1000,"prio":2,"cycles":6},
		{"name":"slow","periodUs":4000,"wcetUs":2500,"prio":3,"cycles":3},
		{"name":"burst","type":"aperiodic","prio":0,"startUs":2500,"computeUs":[300,0,450]},
		{"name":"late","type":"aperiodic","prio":4,"computeUs":[900,900]}]}`, policy, tmodel, cpus)
}

// TestSMPGolden pins the cell bytes (renderTasksetResult) of smpSet on
// 2 and 4 CPUs under both global policies, the default policy name and
// both time models.
func TestSMPGolden(t *testing.T) {
	want := map[string]string{
		"2cpu//coarse":         "e5c781a4b8a3e363413ac139b6406fcb3058663966242cedaf7ad4f0adcda2cd",
		"2cpu//segmented":      "49a12d6bee28b8fd8be9dbd2cae4090cf06f03616f2594b476cb6809153ca488",
		"2cpu/g-fp/coarse":     "e5c781a4b8a3e363413ac139b6406fcb3058663966242cedaf7ad4f0adcda2cd",
		"2cpu/g-fp/segmented":  "49a12d6bee28b8fd8be9dbd2cae4090cf06f03616f2594b476cb6809153ca488",
		"2cpu/g-edf/coarse":    "a741df52950937ae170ea46c6e3c53135b4aff53e8687a4e0d99d1e855f0fdb8",
		"2cpu/g-edf/segmented": "403251a49cf10e61d6819d29dede27603a64dd5433f81645d61d17fdb7017bc5",
		"4cpu//coarse":         "62942d6fe1ac4a70be6674b96a05322eb4e528f2c7b883cff2815e85327da667",
		"4cpu//segmented":      "ddf2fa0a0dc2a14baca91223ab963a2c53365e411859aa2bc05f86562a7e429c",
		"4cpu/g-fp/coarse":     "62942d6fe1ac4a70be6674b96a05322eb4e528f2c7b883cff2815e85327da667",
		"4cpu/g-fp/segmented":  "ddf2fa0a0dc2a14baca91223ab963a2c53365e411859aa2bc05f86562a7e429c",
		"4cpu/g-edf/coarse":    "9900c152e5e3863938ec313b485b11a859efcd38d7604e77f4124c2cf7dc10b8",
		"4cpu/g-edf/segmented": "358e7f0a6ea00c85036f8de1c37cecc68c0b6726219a015c14dabc01ca4ba24e",
	}
	for _, cpus := range []int{2, 4} {
		for _, policy := range []string{"", "g-fp", "g-edf"} {
			for _, tmodel := range []string{"coarse", "segmented"} {
				name := fmt.Sprintf("%dcpu/%s/%s", cpus, policy, tmodel)
				s, err := taskset.Parse([]byte(smpSet(policy, tmodel, cpus)))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				res, err := taskset.Run(s)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				b := renderTasksetResult(res)
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != want[name] {
					t.Errorf("%s: sha256 %s, want %s\n%s", name, got, want[name], b)
				}
			}
		}
	}
}
