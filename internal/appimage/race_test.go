//go:build race

package appimage

func init() { raceEnabled = true }
