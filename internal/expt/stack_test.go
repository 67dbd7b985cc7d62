package expt

import (
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/severifast/severifast/internal/kernelgen"
)

// stackBudget is the goroutine stack a fleet's cached cold boot and a
// forked boot must fit: sim.Engine.Go grows every process to it once,
// before the process body runs, so a path that needs more copies its deep
// stack again, on every boot.
const stackBudget = 8 << 10

// stackBudgetChildEnv marks the re-executed test binary that runs under
// the budget.
const stackBudgetChildEnv = "SEVF_STACK_BUDGET_CHILD"

// TestFleetBootsFitStackBudget runs, in a child process whose goroutines
// may not grow past stackBudget, a 64-worker cached cold fleet and a fork
// iteration. A goroutine that needs more kills the child with "goroutine
// stack exceeds 8192-byte limit" and the stack that asked for it, which
// this test prints. The attested, QEMU/OVMF and broker paths are not held
// to it: P-384 signing alone needs more, and those paths are bound by
// their crypto, not by stack copies.
func TestFleetBootsFitStackBudget(t *testing.T) {
	if os.Getenv(stackBudgetChildEnv) == "1" {
		runUnderStackBudget(t)
		return
	}
	if raceDetector {
		t.Skip("the budget is the plain build's: race instrumentation widens frames and doubles the stack guard")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFleetBootsFitStackBudget$", "-test.count=1")
	cmd.Env = append(os.Environ(), stackBudgetChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return
	}
	trace := string(out)
	if i := strings.Index(trace, "goroutine stack exceeds"); i >= 0 {
		trace = trace[i:]
	}
	const maxTrace = 16 << 10
	if len(trace) > maxTrace {
		trace = trace[:maxTrace] + "\n..."
	}
	t.Fatalf("a fleet boot outgrew the %d-byte stack budget (%v):\n%s", stackBudget, err, trace)
}

// runUnderStackBudget is the child: one untimed pass of each iteration
// builds the process-lifetime caches and grows the harness's own
// goroutines, then both run again under the budget.
func runUnderStackBudget(t *testing.T) {
	const vms = 64
	preset := kernelgen.Lupine()
	initrd := kernelgen.BuildInitrd(7, 4<<20)
	allocFleetIteration(t, preset, initrd, vms, false)
	allocFleetIteration(t, preset, initrd, vms, true)
	defer debug.SetMaxStack(debug.SetMaxStack(stackBudget))
	allocFleetIteration(t, preset, initrd, vms, false)
	allocFleetIteration(t, preset, initrd, vms, true)
}
