package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestHelperProcess re-enters main() when the test binary is re-execed
// by runCLI; it is not a test on its own.
func TestHelperProcess(t *testing.T) {
	args := os.Getenv("MOSBENCH_ARGS")
	if args == "" {
		t.Skip("helper process for runCLI")
	}
	os.Args = append([]string{"mosbench"}, strings.Split(args, "\x1f")...)
	main()
	os.Exit(0)
}

// runCLI runs the mosbench CLI with the given args by re-execing the
// test binary through TestHelperProcess, returning exit code and stderr.
func runCLI(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperProcess")
	cmd.Env = append(os.Environ(), "MOSBENCH_ARGS="+strings.Join(args, "\x1f"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running CLI %v: %v", args, err)
	}
	return code, stderr.String()
}

// TestBadSpecsAreUsageErrors: a malformed -arrival/-link/-shed (or
// -fault/-placement) spec is a usage error — exit 2, before anything
// runs, with a message that names the flag and lists the valid forms.
func TestBadSpecsAreUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings the stderr message must carry
	}{
		{
			name: "arrival process",
			args: []string{"-experiment", "latload", "-arrival", "uniform"},
			want: []string{"-arrival", "poisson", "pareto"},
		},
		{
			name: "arrival alpha",
			args: []string{"-experiment", "latload", "-arrival", "pareto:alpha=0.5"},
			want: []string{"-arrival", "alpha"},
		},
		{
			name: "link key",
			args: []string{"-experiment", "latload", "-link", "mtu=9000"},
			want: []string{"-link", "rtt", "loss", "bw"},
		},
		{
			name: "link jitter exceeds rtt",
			args: []string{"-experiment", "latload", "-link", "rtt=1ms±2ms"},
			want: []string{"-link", "jitter"},
		},
		{
			name: "link missing unit",
			args: []string{"-experiment", "latload", "-link", "rtt=20"},
			want: []string{"-link", "20ms"},
		},
		{
			name: "shed form",
			args: []string{"-experiment", "latload", "-shed", "tail-drop"},
			want: []string{"-shed", "fifo", "qlen=N", "delay=100us"},
		},
		{
			name: "duplicate cores",
			args: []string{"-experiment", "fig4", "-quick", "-cores", "8,1,8", "-csv"},
			want: []string{"-cores", "core count 8 repeated"},
		},
		{
			name: "shed qlen",
			args: []string{"-experiment", "latload", "-shed", "qlen=0"},
			want: []string{"-shed", "positive"},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			code, msg := runCLI(t, c.args...)
			if code != 2 {
				t.Fatalf("exit code %d, want 2 (usage error); stderr: %s", code, msg)
			}
			for _, w := range c.want {
				if !strings.Contains(msg, w) {
					t.Errorf("stderr does not mention %q; got: %s", w, msg)
				}
			}
		})
	}
}

// TestGoodSpecsPassValidation: well-formed specs clear flag validation
// and the canonical forms accepted by the docs parse.
func TestGoodSpecsPassValidation(t *testing.T) {
	// Expect exit 0: a real (tiny) run with every spec flag exercised.
	code, msg := runCLI(t,
		"-experiment", "latload", "-quick", "-serial",
		"-arrival", "pareto:alpha=1.5",
		"-link", "rtt=100us+-50,loss=0.1%",
		"-shed", "qlen=8")
	if code != 0 {
		t.Fatalf("exit code %d, want 0; stderr: %s", code, msg)
	}
}
