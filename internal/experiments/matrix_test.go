package experiments

import (
	"strings"
	"testing"

	"tcppr/internal/workload"
)

// TestMatricesRejectBadNamesBeforeRunning: every matrix validates every
// axis before its first cell, so a bad name anywhere — including late on
// an axis, behind valid names — fails with a descriptive error and runs
// nothing.
func TestMatricesRejectBadNamesBeforeRunning(t *testing.T) {
	protos := []string{workload.TCPPR, "bogus-proto"}
	for _, tc := range []struct {
		name string
		run  func(*InvariantOptions) error
		want string
	}{
		{"fault/scenario", func(inv *InvariantOptions) error {
			_, err := RunFaultMatrix(FaultMatrixConfig{Scenarios: []string{"none", "bogus"}, Invariants: inv})
			return err
		}, "bogus"},
		{"fault/protocol", func(inv *InvariantOptions) error {
			_, err := RunFaultMatrix(FaultMatrixConfig{Protocols: protos, Invariants: inv})
			return err
		}, "faultmatrix: unknown protocol"},
		{"churn/scenario", func(inv *InvariantOptions) error {
			_, err := RunChurnMatrix(ChurnMatrixConfig{Scenarios: []string{"host-blip-500ms", "bogus"}, Invariants: inv})
			return err
		}, "bogus"},
		{"churn/protocol", func(inv *InvariantOptions) error {
			_, err := RunChurnMatrix(ChurnMatrixConfig{Protocols: protos, Invariants: inv})
			return err
		}, "churnmatrix: unknown protocol"},
		{"reorder/model", func(inv *InvariantOptions) error {
			_, err := RunReorderMatrix(ReorderMatrixConfig{Models: []string{"none", "bogus"}, Invariants: inv})
			return err
		}, "bogus"},
		{"reorder/protocol", func(inv *InvariantOptions) error {
			_, err := RunReorderMatrix(ReorderMatrixConfig{Protocols: protos, Invariants: inv})
			return err
		}, "reordermatrix: unknown protocol"},
		{"repair/box", func(inv *InvariantOptions) error {
			_, err := RunRepairMatrix(RepairMatrixConfig{Boxes: []string{"none", "bogus"}, Invariants: inv})
			return err
		}, "bogus"},
		{"repair/model", func(inv *InvariantOptions) error {
			_, err := RunRepairMatrix(RepairMatrixConfig{Models: []string{"swap-high", "bogus"}, Invariants: inv})
			return err
		}, "bogus"},
		{"repair/protocol", func(inv *InvariantOptions) error {
			_, err := RunRepairMatrix(RepairMatrixConfig{Protocols: protos, Invariants: inv})
			return err
		}, "repairmatrix: unknown protocol"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inv := &InvariantOptions{}
			err := tc.run(inv)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
			if n := inv.Cells(); n != 0 {
				t.Fatalf("%d cells ran before the bad name was rejected, want 0", n)
			}
		})
	}
}

// TestRunMatrixOrderAndIndex pins the cross product's layout: axis-major
// (first axis slowest) with 1-based cell indices in that order, whatever
// the worker count.
func TestRunMatrixOrderAndIndex(t *testing.T) {
	defer SetParallelism(0)
	for _, workers := range []int{1, 3} {
		SetParallelism(workers)
		got, err := runMatrix([]axis{
			{[]string{"a", "b"}, func(n string) (any, error) { return n, nil }},
			{[]string{"x", "y", "z"}, func(n string) (any, error) { return n, nil }},
		}, func(at []any, index int) string {
			return at[0].(string) + at[1].(string) + ":" + string(rune('0'+index))
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"ax:1", "ay:2", "az:3", "bx:4", "by:5", "bz:6"}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("workers=%d: cells %v, want %v", workers, got, want)
		}
	}
}
