package maprat

import "time"

// DatasetInfo describes the served dataset for monitoring (/statsz) and
// the snap CLI: where it came from and what opening it cost.
type DatasetInfo struct {
	// Source is how the dataset was opened: "snapshot", "text" or
	// "generated".
	Source string
	// Path is the snapshot file or data directory ("" for generated).
	Path string
	// FileSize is the snapshot file's size in bytes (0 when not file-backed).
	FileSize int64
	// OpenDuration is the wall time from bytes to a ready engine.
	OpenDuration time.Duration
}

// Mount pairs the served miner with its dataset identity. The field keeps
// the name Engine, but any Miner mounts (the perfbench traced run mounts
// a wrapper around a local engine).
type Mount struct {
	Name   string
	Engine Miner
	Info   DatasetInfo
}

// NewSingleRegistry returns the mount a server serves: eng under name,
// with info for /statsz. It keeps the name it had when a server could
// mount several datasets only because perfbench/runner.go:165 calls it;
// ROADMAP item 1's perfbench change renames it.
func NewSingleRegistry(name string, eng Miner, info DatasetInfo) *Mount {
	return &Mount{Name: name, Engine: eng, Info: info}
}
