//go:build race

package rtc

func init() { raceEnabled = true }
