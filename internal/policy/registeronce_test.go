package policy

import "sync"

var (
	registerMu   sync.Mutex
	registerErrs = map[string]error{}
)

// registerOnce runs the test registration under name once per process and
// hands every later call the first call's error, so a test that registers
// a process-global name survives -count=N and -shuffle. A factory that
// records per-run state must keep it in a package variable the test
// resets, not in a variable of the run that registered it.
func registerOnce(name string, register func() error) error {
	registerMu.Lock()
	defer registerMu.Unlock()
	if err, done := registerErrs[name]; done {
		return err
	}
	err := register()
	registerErrs[name] = err
	return err
}
