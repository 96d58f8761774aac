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
		"2cpu//coarse":         "b9343f369972d7bcb3625841bf834e248c0ae4210d59a58acc090e27c4019049",
		"2cpu//segmented":      "aec13f10aaac6a117fde4af4ee3f295d329a01a38adec16afdc1e33e882d6469",
		"2cpu/g-fp/coarse":     "b9343f369972d7bcb3625841bf834e248c0ae4210d59a58acc090e27c4019049",
		"2cpu/g-fp/segmented":  "aec13f10aaac6a117fde4af4ee3f295d329a01a38adec16afdc1e33e882d6469",
		"2cpu/g-edf/coarse":    "048641ddcd53b5270330d1c831bdd1cb268a54afc0267b9c8a70623ad919af4b",
		"2cpu/g-edf/segmented": "023a5ca453c42ee99f046ef4359f2e34887dffce1ed2fb2911817a23328de7c9",
		"4cpu//coarse":         "dc2d55582d95ab8642d282f123bd02527bf589656f5136169d8dee6a163f89dc",
		"4cpu//segmented":      "d354d88d66f501c57cbdaf7eb89b59fe54cb97b890270c7e1218ff7f7dccd616",
		"4cpu/g-fp/coarse":     "dc2d55582d95ab8642d282f123bd02527bf589656f5136169d8dee6a163f89dc",
		"4cpu/g-fp/segmented":  "d354d88d66f501c57cbdaf7eb89b59fe54cb97b890270c7e1218ff7f7dccd616",
		"4cpu/g-edf/coarse":    "829f7275dd9342659d1899dd3f131e75a6fed7da9f3e2f10eec9a54efdff2569",
		"4cpu/g-edf/segmented": "41078a923f3c8407f1d0dc64da9d4ba118f93da25351e0b2ae78597a1c8d9829",
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
