//go:build race

package ttt

func init() { raceEnabled = true }
