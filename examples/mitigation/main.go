// Mitigation demonstrates the full shield: the Real-Time IDS Unit detects
// a Mirai SYN flood, the Responder converts its per-window verdicts into
// firewall rules at the TServer's ingress, and service quality recovers
// while the flood is still being emitted. Run it to watch detection,
// response and recovery on one timeline.
package main

import (
	"fmt"
	"log"
	"time"

	"ddoshield/internal/botnet"
	"ddoshield/internal/ids"
	"ddoshield/internal/mitigation"
	"ddoshield/internal/testbed"
)

func main() {
	tb, err := testbed.New(testbed.Config{Seed: 31, NumDevices: 10})
	if err != nil {
		log.Fatal(err)
	}

	// The detector is the hand-written SYN-ratio / UDP-fraction rule; any
	// ml.Classifier — a trained model from cmd/trainids, or a type of your
	// own with Predict and Name — plugs in identically.
	unit := ids.New(ids.Config{
		Model:   ids.NewThresholdRule(),
		Window:  time.Second,
		Labeler: tb.Labeler(),
	})
	tb.AttachIDS(unit)
	// The shield: a firewall at the TServer ingress, fed rules by a
	// responder that acts on the unit's alert windows.
	tb.AttachMitigation(unit, testbed.MitigationConfig{
		Responder: mitigation.ResponderConfig{
			BlockTTL:           45 * time.Second,
			AggregateThreshold: 8,
		},
	})

	tb.Start()
	fmt.Println("=== phase 1: infection (90 s) ===")
	if err := tb.Run(90 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("botnet: %d bots connected\n", tb.C2().Bots())

	fmt.Println("\n=== phase 2: SYN flood vs. the shield (30 s) ===")
	tb.C2().Broadcast(botnet.Command{
		Type: botnet.AttackSYN, Target: tb.TServerAddr(), Port: 80,
		Duration: 25 * time.Second, PPS: 1500,
	})
	if err := tb.Run(30 * time.Second); err != nil {
		log.Fatal(err)
	}
	unit.Flush()

	r := tb.MitigationScoreboard().Units[0]
	fmt.Printf("IDS alerts handled: %d\n", r.Alerts)
	fmt.Printf("firewall rules: %d address, %d prefix (spoof-range aggregation)\n",
		r.RulesInstalled.Addr, r.RulesInstalled.Prefix)
	fmt.Printf("firewall: %d frames evaluated, %d dropped at ingress\n", r.Evaluated, r.Dropped)
	_, synDropped, halfExpired := tb.HTTPServer().Listener().Stats()
	fmt.Printf("TServer listener: %d SYNs dropped at backlog, %d half-open expired\n",
		synDropped, halfExpired)
	httpReqs, _ := tb.HTTPServer().Stats()
	fmt.Printf("benign HTTP requests served across the whole run: %d\n", httpReqs)

	fmt.Println("\nper-window verdict timeline (■ = alert):")
	line := ""
	for _, w := range unit.Results() {
		if w.Alert {
			line += "■"
		} else {
			line += "·"
		}
	}
	fmt.Println(line)
}
