// Wind-turbine sensors — the introduction's motivating scenario: hundreds
// of sensors per turbine, usually only one or two broken at a time. DISC
// with a κ budget repairs readings whose few broken sensors made them
// outlying, and flags readings that are strange on many sensors (another
// wind farm, extreme weather) as natural outliers for human review.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	disc "repro"
)

const (
	sensors  = 24  // columns: temperature, wind speed, pitch, vibration, ...
	readings = 800 // rows: periodic snapshots from one turbine fleet
)

func main() {
	rng := rand.New(rand.NewSource(42))
	names := make([]string, sensors)
	for i := range names {
		names[i] = fmt.Sprintf("sensor%02d", i)
	}
	rel := disc.NewRelation(disc.NewNumericSchema(names...))

	// Three operating regimes (idle / rated / storm curtailment), each a
	// tight profile over the sensors.
	profiles := make([][]float64, 3)
	for p := range profiles {
		profiles[p] = make([]float64, sensors)
		for a := range profiles[p] {
			profiles[p][a] = 20 + 60*rng.Float64()
		}
	}
	for i := 0; i < readings; i++ {
		p := profiles[i%3]
		t := make(disc.Tuple, sensors)
		for a := 0; a < sensors; a++ {
			t[a] = disc.Num(p[a] + rng.NormFloat64()*0.8)
		}
		rel.Append(t)
	}
	// Broken sensors: 40 readings where 1–2 sensors report garbage.
	brokenRows := map[int][]int{}
	for k := 0; k < 40; k++ {
		i := rng.Intn(readings)
		for s := 0; s < 1+rng.Intn(2); s++ {
			a := rng.Intn(sensors)
			rel.Tuples[i][a] = disc.Num(rel.Tuples[i][a].Num + 120 + 80*rng.Float64())
			brokenRows[i] = append(brokenRows[i], a)
		}
	}
	// A reading relayed from another wind farm: off on every sensor.
	foreign := make(disc.Tuple, sensors)
	for a := range foreign {
		foreign[a] = disc.Num(200 + 50*rng.Float64())
	}
	rel.Append(foreign)

	// Let the library pick (ε, η) from the data, then repair with a
	// two-sensor trust budget: "a turbine is switched off if more than κ
	// sensors are broken" (§3.3).
	ctx := context.Background()
	choice, err := disc.DetermineParamsContext(ctx, rel, disc.ParamOptions{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("determined ε=%.3g η=%d (mean neighbors λ=%.1f)\n", choice.Eps, choice.Eta, choice.Lambda)

	res, err := disc.SaveContext(ctx, rel, disc.Constraints{Eps: choice.Eps, Eta: choice.Eta}, disc.Options{Kappa: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d readings flagged, %d repaired, %d left for human review\n\n",
		len(res.Detection.Outliers), res.Saved, res.Natural)

	correctSensor, total := 0, 0
	for _, adj := range res.Adjustments {
		if !adj.Saved() {
			continue
		}
		want, ok := brokenRows[adj.Index]
		if !ok {
			continue
		}
		total++
		hit := true
		for _, a := range want {
			if !adj.Adjusted.Has(a) {
				hit = false
			}
		}
		if hit {
			correctSensor++
		}
	}
	fmt.Printf("repairs touching exactly the broken sensors: %d/%d\n", correctSensor, total)
	if res.Natural > 0 {
		fmt.Println("the foreign-farm reading was flagged as a natural outlier, values untouched")
	}
}
