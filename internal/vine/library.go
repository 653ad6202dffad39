package vine

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Serverless execution (§IV.B): a Library bundles functions plus a Setup
// routine standing in for Python imports — the expensive environment
// construction (loading tables, warming caches, JIT-ing kernels) that the
// paper eliminates per-invocation. Execution modes differ only in when
// Setup runs:
//
//	ModeTask          Setup per task (wrapper script + imports every time)
//	ModeFunctionCall  persistent library; Setup once if hoisted, else per call
//
// Library code is registered in both manager and worker binaries (Go cannot
// ship code at runtime the way Python pickles closures); the manager
// controls instantiation and hoisting per worker.

// TaskMode selects the execution paradigm.
type TaskMode string

// Execution modes.
const (
	// ModeTask is the conventional paradigm: environment built per task.
	ModeTask TaskMode = "task"
	// ModeFunctionCall invokes a function inside a persistent LibraryTask.
	ModeFunctionCall TaskMode = "function-call"
)

// Call is the context passed to an executing function.
type Call struct {
	// Args is the opaque argument blob from the submitter.
	Args []byte

	state   any
	inputs  map[string]string // logical name → local cache path
	outputs map[string][]byte
	reader  func(path string) ([]byte, error)
}

// State returns the library state built by Setup ("hoisted imports"). In
// ModeTask and non-hoisted function calls it is freshly built for this
// execution.
func (c *Call) State() any { return c.state }

// Input reads a task input by its logical name.
func (c *Call) Input(name string) ([]byte, error) {
	p, ok := c.inputs[name]
	if !ok {
		return nil, fmt.Errorf("vine: task has no input %q", name)
	}
	return c.reader(p)
}

// InputPath reports the local path of an input for streaming access.
func (c *Call) InputPath(name string) (string, error) {
	p, ok := c.inputs[name]
	if !ok {
		return "", fmt.Errorf("vine: task has no input %q", name)
	}
	return p, nil
}

// InputNames lists the logical input names, sorted.
func (c *Call) InputNames() []string {
	out := make([]string, 0, len(c.inputs))
	for n := range c.inputs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SetOutput stages a named output; the worker writes it into its cache when
// the function returns successfully.
func (c *Call) SetOutput(name string, data []byte) {
	c.outputs[name] = data
}

// Function is one callable within a library.
type Function func(c *Call) error

// Library bundles functions behind a named environment.
type Library struct {
	Name string
	// Setup builds the shared environment. May be nil. The returned state
	// is passed to every Function via Call.State.
	Setup func() (any, error)
	// SetupDelay adds a deterministic cost to Setup, letting tests and
	// examples model heavyweight imports without burning CPU.
	SetupDelay time.Duration
	Funcs      map[string]Function
}

// validate checks the library definition.
func (l *Library) validate() error {
	if l.Name == "" {
		return fmt.Errorf("vine: library with empty name")
	}
	if len(l.Funcs) == 0 {
		return fmt.Errorf("vine: library %q has no functions", l.Name)
	}
	for name, f := range l.Funcs {
		if name == "" || f == nil {
			return fmt.Errorf("vine: library %q has invalid function %q", l.Name, name)
		}
	}
	return nil
}

// buildState runs Setup (with its modelled delay).
func (l *Library) buildState() (any, error) {
	if l.SetupDelay > 0 {
		time.Sleep(l.SetupDelay)
	}
	if l.Setup == nil {
		return nil, nil
	}
	return l.Setup()
}

// Process-wide library registry shared by manager and worker (same binary).
var (
	libMu  sync.RWMutex
	libReg = make(map[string]*Library)
)

// RegisterLibrary installs a library definition process-wide. Registering a
// name twice replaces the previous definition (tests rely on this).
func RegisterLibrary(l *Library) error {
	if err := l.validate(); err != nil {
		return err
	}
	libMu.Lock()
	defer libMu.Unlock()
	libReg[l.Name] = l
	return nil
}

// MustRegisterLibrary panics on registration error.
func MustRegisterLibrary(l *Library) {
	if err := RegisterLibrary(l); err != nil {
		panic(err)
	}
}

// lookupLibrary finds a registered library.
func lookupLibrary(name string) (*Library, error) {
	libMu.RLock()
	defer libMu.RUnlock()
	l, ok := libReg[name]
	if !ok {
		return nil, fmt.Errorf("vine: no library registered as %q", name)
	}
	return l, nil
}

// libraryInstance is a live, possibly-hoisted environment on a worker.
type libraryInstance struct {
	lib   *Library
	hoist bool

	mu       sync.Mutex
	state    any
	stateErr error
	built    bool

	// instrumentation
	setups int
}

func newLibraryInstance(lib *Library, hoist bool) *libraryInstance {
	return &libraryInstance{lib: lib, hoist: hoist}
}

// stateFor returns the environment for one invocation, building it
// according to the hoisting policy, and reports the setup time spent for
// this call.
func (li *libraryInstance) stateFor() (any, time.Duration, error) {
	start := time.Now()
	if !li.hoist {
		li.mu.Lock()
		li.setups++
		li.mu.Unlock()
		st, err := li.lib.buildState()
		return st, time.Since(start), err
	}
	li.mu.Lock()
	defer li.mu.Unlock()
	if !li.built {
		li.state, li.stateErr = li.lib.buildState()
		li.built = true
		li.setups++
	}
	return li.state, time.Since(start), li.stateErr
}

// SetupCount reports how many times Setup ran (instrumentation for the
// hoisting tests).
func (li *libraryInstance) SetupCount() int {
	li.mu.Lock()
	defer li.mu.Unlock()
	return li.setups
}
