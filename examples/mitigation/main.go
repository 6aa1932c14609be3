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

	// The shield: firewall at the TServer ingress + IDS-driven responder.
	fw := mitigation.NewFirewall(tb.Scheduler(), tb.TServer().Host().NIC())
	resp := mitigation.NewResponder(fw, mitigation.ResponderConfig{
		BlockTTL:           45 * time.Second,
		AggregateThreshold: 8,
	})
	// The detector is the hand-written SYN-ratio / UDP-fraction rule; any
	// ml.Classifier — a trained model from cmd/trainids, or a type of your
	// own with Predict and Name — plugs in identically.
	unit := ids.New(ids.Config{
		Model:    ids.NewThresholdRule(),
		Window:   time.Second,
		Labeler:  tb.Labeler(),
		OnWindow: resp.HandleWindow,
	})
	tb.AddTap(unit.Tap())

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

	alerts, addrRules, prefixRules := resp.Stats()
	evaluated, dropped := fw.Stats()
	fmt.Printf("IDS alerts handled: %d\n", alerts)
	fmt.Printf("firewall rules: %d address, %d prefix (spoof-range aggregation)\n",
		addrRules, prefixRules)
	fmt.Printf("firewall: %d frames evaluated, %d dropped at ingress\n", evaluated, dropped)
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
