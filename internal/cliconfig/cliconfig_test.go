package cliconfig

import (
	"flag"
	"io"
	"testing"

	"jepo/internal/engine"
)

func newFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestDefaults(t *testing.T) {
	fs := newFlagSet()
	s := Register(fs, FeatEngine|FeatJobs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if cfg := s.CacheConfig(); cfg.Disabled || cfg.Capacity != engine.DefaultCapacity {
		t.Errorf("default cache config = %+v, want enabled at DefaultCapacity", cfg)
	}
	eng, err := s.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if eng.String() != "vm" {
		t.Errorf("default engine = %v, want vm", eng)
	}
	if s.Jobs() <= 0 {
		t.Errorf("default jobs = %d, want > 0", s.Jobs())
	}
}

func TestParsedValues(t *testing.T) {
	fs := newFlagSet()
	s := Register(fs, FeatEngine|FeatJobs)
	args := []string{
		"-engine", "ast", "-jobs", "3", "-cache=false", "-cache-size", "99",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if cfg := s.CacheConfig(); !cfg.Disabled || cfg.Capacity != 99 {
		t.Errorf("cache config = %+v, want disabled with capacity 99", cfg)
	}
	eng, err := s.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if eng.String() != "ast" {
		t.Errorf("engine = %v, want ast", eng)
	}
	if s.Jobs() != 3 {
		t.Errorf("jobs = %d, want 3", s.Jobs())
	}
}

func TestFeatureGating(t *testing.T) {
	fs := newFlagSet()
	Register(fs, 0)
	for _, name := range []string{"engine", "jobs"} {
		if fs.Lookup(name) != nil {
			t.Errorf("flag -%s registered without its feature bit", name)
		}
	}
	for _, name := range []string{"cache", "cache-size"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s should always be registered", name)
		}
	}
}

// TestApplyCacheInstallsEngine: ApplyCache installs the parsed cache
// configuration as the process-wide engine.
func TestApplyCacheInstallsEngine(t *testing.T) {
	prev := engine.SetDefault(nil)
	t.Cleanup(func() { engine.SetDefault(prev) })
	fs := newFlagSet()
	s := Register(fs, 0)
	if err := fs.Parse([]string{"-cache=false", "-cache-size", "77"}); err != nil {
		t.Fatal(err)
	}
	eng := s.ApplyCache()
	if !eng.Stats().Disabled {
		t.Error("ApplyCache did not disable the engine")
	}
	if engine.Default() != eng {
		t.Error("ApplyCache did not install its engine as the process default")
	}
	if got := eng.Stats().Capacity; got != 77 {
		t.Errorf("capacity = %d, want 77", got)
	}
}
