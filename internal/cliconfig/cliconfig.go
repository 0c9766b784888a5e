// Package cliconfig is the one place the repository's command-line surfaces
// declare their shared execution knobs. jepo, jperf, wekaexp and the jepod
// daemon all expose the same flags — -engine, -jobs, -cache and
// -cache-size — and before this package each binary re-declared them with
// drifting help strings and its own apply-after-parse ritual. Register once,
// Parse, then read the typed accessors.
package cliconfig

import (
	"flag"
	"runtime"

	"jepo/internal/engine"
	"jepo/internal/minijava/interp"
)

// Feature selects which optional flag groups Register declares. The cache
// flags are always registered — every binary takes them.
type Feature uint

const (
	// FeatEngine declares -engine (vm | ast).
	FeatEngine Feature = 1 << iota
	// FeatJobs declares -jobs (sched pool width; pure wall-clock knob).
	FeatJobs
)

// Set holds the parsed shared flags of one command. Accessors are valid
// only after the owning FlagSet has been parsed.
type Set struct {
	engineName *string
	jobs       *int
	cacheOn    *bool
	cacheSize  *int
}

// Register declares the shared flags on fs: the artifact-cache pair always,
// plus the groups selected by features. Call before fs.Parse.
func Register(fs *flag.FlagSet, features Feature) *Set {
	s := &Set{}
	s.cacheOn = fs.Bool("cache", true, "content-addressed artifact cache (parse/program/sample reuse; stdout is identical either way)")
	s.cacheSize = fs.Int("cache-size", engine.DefaultCapacity, "artifact cache capacity in entries")
	if features&FeatEngine != 0 {
		s.engineName = fs.String("engine", "vm", "execution engine: vm (bytecode) or ast (tree-walker)")
	}
	if features&FeatJobs != 0 {
		s.jobs = fs.Int("jobs", runtime.GOMAXPROCS(0), "worker pool width; stdout is bit-identical at any value (telemetry goes to stderr)")
	}
	return s
}

// ApplyCache installs the process-wide artifact engine from the parsed
// -cache/-cache-size values. Call exactly once, right after parsing.
func (s *Set) ApplyCache() *engine.Engine {
	return engine.Configure(s.CacheConfig())
}

// CacheConfig returns the parsed cache configuration without installing it.
// The daemon uses this form: it builds a private engine for its sessions
// instead of mutating process-wide state.
func (s *Set) CacheConfig() engine.Config {
	return engine.Config{Disabled: !*s.cacheOn, Capacity: *s.cacheSize}
}

// Engine resolves the parsed -engine name. Requires FeatEngine.
func (s *Set) Engine() (interp.Engine, error) {
	if s.engineName == nil {
		panic("cliconfig: Engine() without FeatEngine")
	}
	return interp.ParseEngine(*s.engineName)
}

// Jobs returns the parsed -jobs value. Requires FeatJobs.
func (s *Set) Jobs() int {
	if s.jobs == nil {
		panic("cliconfig: Jobs() without FeatJobs")
	}
	return *s.jobs
}
