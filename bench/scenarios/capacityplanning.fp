-- DEFINITION --
DECLARE PARAMETER @current AS RANGE 0 TO 52 STEP BY 1;
DECLARE PARAMETER @purchase1 AS RANGE 0 TO 48 STEP BY 8;
DECLARE PARAMETER @purchase2 AS RANGE 0 TO 48 STEP BY 8;
DECLARE PARAMETER @feature AS SET (12,36,44);

SELECT DemandModel(@current, @feature)
       AS demand,
       CapacityModel(@current, @purchase1, @purchase2)
       AS capacity,
       CASE WHEN capacity < demand THEN 1 ELSE 0 END
       AS overload
INTO results;

-- ONLINE MODE --
GRAPH OVER @current
      EXPECT overload WITH bold red,
      EXPECT capacity WITH blue y2,
      EXPECT_STDDEV demand WITH orange y2;

-- OFFLINE MODE --
-- The extra @purchase1 <= @purchase2 term keeps the two purchases ordered;
-- without it the lexicographic MAX @purchase1 goal would push the *first*
-- purchase late and cover early demand with the second.
OPTIMIZE SELECT @feature, @purchase1, @purchase2
FROM results
WHERE MAX(EXPECT overload) < 0.05 AND @purchase1 <= @purchase2
GROUP BY feature, purchase1, purchase2
FOR MAX @purchase1, MAX @purchase2
