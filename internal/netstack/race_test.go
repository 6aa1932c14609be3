//go:build race

package netstack

// releasePoisons: the race build's packet.ReleaseFrame overwrites a frame
// with 0xDB, so a test can see that a frame it handed over was released.
const releasePoisons = true
