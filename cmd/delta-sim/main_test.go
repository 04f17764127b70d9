package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUnknownNamesExit2: an unknown -mix, -app or -policy is a usage error,
// reported as one line on stderr with exit status 2, never a panic. The test
// re-executes its own binary with DELTA_SIM_ARGS set to run main.
func TestUnknownNamesExit2(t *testing.T) {
	if args, ok := os.LookupEnv("DELTA_SIM_ARGS"); ok {
		os.Args = append([]string{"delta-sim"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"-mix nope", "-app nope", "-policy nope -mix w2"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownNamesExit2$")
		cmd.Env = append(os.Environ(), "DELTA_SIM_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("delta-sim %s: %v, want exit status 2\n%s", args, err, out)
		}
		if msg := strings.TrimSpace(string(out)); strings.Contains(msg, "panic") || strings.Count(msg, "\n") > 0 {
			t.Fatalf("delta-sim %s: want a one-line error, got\n%s", args, out)
		}
	}
}
