//go:build race

package cloud

func init() { raceEnabled = true }
